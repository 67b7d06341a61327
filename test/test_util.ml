(* Unit and property tests for the utility library: Vec, Prng, Tabular,
   Bitset and the Json codec. *)

open Hca_util

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "push returns index" i (Vec.push v (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  for i = 0 to 99 do
    Alcotest.(check int) "get" (i * 2) (Vec.get v i)
  done

let test_vec_set () =
  let v = Vec.create () in
  ignore (Vec.push v 1);
  ignore (Vec.push v 2);
  Vec.set v 0 42;
  Alcotest.(check int) "set" 42 (Vec.get v 0);
  Alcotest.(check int) "untouched" 2 (Vec.get v 1)

let test_vec_bounds () =
  let v = Vec.create () in
  ignore (Vec.push v 0);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_iter_fold () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check (list (pair int int)))
    "iteri order"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ]
    (List.rev !seen);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_vec_to_array_copies () =
  let v = Vec.of_array [| 1; 2 |] in
  let a = Vec.to_array v in
  a.(0) <- 99;
  Alcotest.(check int) "to_array is a copy" 1 (Vec.get v 0)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.next a <> Prng.next b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_int_range () =
  let rng = Prng.create 42 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_prng_int_bad_bound () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_prng_float_range () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_shuffle_permutation () =
  let rng = Prng.create 5 in
  let a = Array.init 64 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 64 (fun i -> i)) sorted

let test_prng_split_independent () =
  let rng = Prng.create 11 in
  let child = Prng.split rng in
  (* The two streams should not be identical. *)
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.next rng <> Prng.next child then differs := true
  done;
  Alcotest.(check bool) "split stream differs" true !differs

let test_tabular_alignment () =
  let t = Tabular.create [ ("name", Tabular.Left); ("n", Tabular.Right) ] in
  Tabular.add_row t [ "a"; "1" ];
  Tabular.add_row t [ "long-name"; "12345" ];
  let out = Tabular.render t in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: _ ->
      Alcotest.(check bool)
        "header padded" true
        (String.length header >= String.length "long-name  12345")
  | [] -> Alcotest.fail "no output");
  Alcotest.(check bool) "contains rule" true (String.contains out '-')

let test_tabular_arity_check () =
  let t = Tabular.create [ ("a", Tabular.Left) ] in
  Alcotest.check_raises "cell count"
    (Invalid_argument "Tabular.add_row: cell count mismatch") (fun () ->
      Tabular.add_row t [ "x"; "y" ])

(* Bitset vs a boolean-array model: any interleaving of set/clear/reset
   leaves both agreeing on membership, cardinality and enumeration. *)
let apply_ops width ops =
  let b = Bitset.create width in
  let model = Array.make width false in
  List.iter
    (fun (tag, i) ->
      let i = i mod width in
      match tag mod 3 with
      | 0 ->
          Bitset.set b i;
          model.(i) <- true
      | 1 ->
          Bitset.clear b i;
          model.(i) <- false
      | _ ->
          Bitset.reset b;
          Array.fill model 0 width false)
    ops;
  (b, model)

let ops_gen =
  QCheck.(pair (int_range 1 80) (small_list (pair small_int small_int)))

let prop_bitset_model =
  QCheck.Test.make ~name:"Bitset agrees with bool-array model" ~count:300
    ops_gen (fun (width, ops) ->
      let b, model = apply_ops width ops in
      let mem_ok = ref true in
      for i = 0 to width - 1 do
        if Bitset.mem b i <> model.(i) then mem_ok := false
      done;
      let card = Array.fold_left (fun n x -> if x then n + 1 else n) 0 model in
      let listed =
        Array.to_list model
        |> List.mapi (fun i x -> (i, x))
        |> List.filter_map (fun (i, x) -> if x then Some i else None)
      in
      !mem_ok
      && Bitset.cardinal b = card
      && Bitset.to_list b = listed
      && Bitset.fold (fun _ n -> n + 1) b 0 = card)

let prop_bitset_inter =
  QCheck.Test.make ~name:"Bitset.inter_count matches the model intersection"
    ~count:300
    QCheck.(
      triple (int_range 1 80)
        (small_list (pair small_int small_int))
        (small_list (pair small_int small_int)))
    (fun (width, ops_a, ops_b) ->
      let a, ma = apply_ops width ops_a in
      let b, mb = apply_ops width ops_b in
      let expect = ref 0 in
      for i = 0 to width - 1 do
        if ma.(i) && mb.(i) then incr expect
      done;
      Bitset.inter_count a b = !expect)

let prop_bitset_copy =
  QCheck.Test.make ~name:"Bitset.copy is independent and equal" ~count:200
    ops_gen (fun (width, ops) ->
      let b, _ = apply_ops width ops in
      let c = Bitset.copy b in
      let eq_before = Bitset.equal b c in
      Bitset.set c 0;
      Bitset.clear b 0;
      eq_before && Bitset.mem c 0 && not (Bitset.mem b 0))

let test_bitset_bounds () =
  let b = Bitset.create 9 in
  Alcotest.check_raises "set out of bounds"
    (Invalid_argument "Bitset: index out of bounds") (fun () -> Bitset.set b 9);
  Alcotest.check_raises "mem negative"
    (Invalid_argument "Bitset: index out of bounds") (fun () ->
      ignore (Bitset.mem b (-1)));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Bitset.inter_count: width mismatch") (fun () ->
      ignore (Bitset.inter_count b (Bitset.create 8)))

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"Vec.of_array |> to_array is identity" ~count:200
    QCheck.(array small_int)
    (fun a -> Hca_util.Vec.to_array (Hca_util.Vec.of_array a) = a)

let prop_prng_bounded =
  QCheck.Test.make ~name:"Prng.int stays within any bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let x = Prng.int rng bound in
      x >= 0 && x < bound)

(* ------------------------------------------------------------------ *)
(* Json: the repo's one codec                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      {|null|};
      {|true|};
      {|42|};
      {|-1.5|};
      {|"a\"b\\c\nd"|};
      {|[1,[2,3],{"k":null}]|};
      {|{"a":1,"b":[true,false],"c":{"d":"e"}}|};
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error e -> Alcotest.failf "parse %s: %s" s e
      | Ok j -> (
          let printed = Json.to_string j in
          match Json.parse printed with
          | Error e -> Alcotest.failf "reparse %s: %s" printed e
          | Ok j' ->
              Alcotest.(check bool)
                (Printf.sprintf "roundtrip %s" s)
                true (j = j')))
    cases

let test_json_escapes () =
  let parses_to text expect =
    match Json.parse text with
    | Ok (Json.Str s) -> Alcotest.(check string) text expect s
    | Ok _ -> Alcotest.fail "expected a string"
    | Error e -> Alcotest.fail e
  in
  parses_to {|"A\u0009\u00e9"|} "A\t\xc3\xa9";
  (* Raw UTF-8 passes through in both directions. *)
  Alcotest.(check string) "UTF-8 unescaped" {|"café"|}
    (Json.to_string (Json.Str "café"));
  Alcotest.(check string) "control bytes" {|"\"\t\u0001"|}
    (Json.to_string (Json.Str "\"\t\001"))

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; {|{"a":}|}; "tru"; {|"unterminated|}; "1 2"; "{\"a\":1,}";
      {|"caf\195\169"|}; {|"\u00g0"|}; "nan"; "inf"; "3 garbage";
    ]

let test_json_non_finite () =
  List.iter
    (fun f ->
      Alcotest.(check string) (string_of_float f) "null"
        (Json.to_string (Json.Num f)))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check string) "inside a row" {|{"experiment":"e","kernel":"k","gap":null}|}
    (Json.row ~experiment:"e" ~kernel:"k" [ ("gap", Json.Num nan) ]);
  Alcotest.(check string) "fixed decimals" "[0.125,2,1234567.5]"
    (Json.to_string
       (Json.Arr [ Json.fixed 3 0.12500001; Json.fixed 6 2.; Json.Num 1234567.5 ]))

let json_gen =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:char (int_bound n) in
  let finite =
    oneof
      [
        map float_of_int int;
        map (fun f -> if Float.is_finite f then f else 0.) float;
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) finite;
               map (fun s -> Json.Str s) (bytes 12);
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair (bytes 8) (self (n / 4)))) );
             ])

let json_arb = QCheck.make ~print:Json.to_string json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts to_string" ~count:500 json_arb
    (fun v -> Json.parse (Json.to_string v) = Ok v)

let prop_json_parse_total =
  QCheck.Test.make ~name:"Json.parse never raises on random or mutated bytes"
    ~count:1000
    QCheck.(
      quad json_arb (small_list (pair small_nat char)) small_nat string)
    (fun (v, edits, cut, junk) ->
      let b = Bytes.of_string (Json.to_string v) in
      let n = Bytes.length b in
      List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
      let mutated = Bytes.sub_string b 0 (n - (cut mod (n + 1))) in
      let total s = match Json.parse s with Ok _ | Error _ -> true in
      total mutated && total junk)

let () =
  Alcotest.run "util"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite numbers" `Quick test_json_non_finite;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          QCheck_alcotest.to_alcotest prop_json_parse_total;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          Alcotest.test_case "to_array copies" `Quick test_vec_to_array_copies;
          QCheck_alcotest.to_alcotest prop_vec_roundtrip;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "bad bound" `Quick test_prng_int_bad_bound;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          QCheck_alcotest.to_alcotest prop_prng_bounded;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          QCheck_alcotest.to_alcotest prop_bitset_model;
          QCheck_alcotest.to_alcotest prop_bitset_inter;
          QCheck_alcotest.to_alcotest prop_bitset_copy;
        ] );
      ( "tabular",
        [
          Alcotest.test_case "alignment" `Quick test_tabular_alignment;
          Alcotest.test_case "arity check" `Quick test_tabular_arity_check;
        ] );
    ]
