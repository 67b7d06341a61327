open Hca_ddg
open Hca_machine

type expectation = Expect_ok | Expect_fail of string | Expect_gap of int

type entry = { name : string; instance : Gen.instance; expect : expectation }

let ( let* ) = Result.bind

let expectation_to_string = function
  | Expect_ok -> "ok"
  | Expect_fail check -> "fail:" ^ check
  | Expect_gap g -> "gap:" ^ string_of_int g

let expectation_of_string s =
  match String.trim s with
  | "ok" -> Ok Expect_ok
  | s when String.length s > 5 && String.sub s 0 5 = "fail:" ->
      Ok (Expect_fail (String.sub s 5 (String.length s - 5)))
  | s when String.length s > 4 && String.sub s 0 4 = "gap:" -> (
      match int_of_string_opt (String.sub s 4 (String.length s - 4)) with
      | Some g -> Ok (Expect_gap g)
      | None -> Error ("expect: bad gap " ^ s))
  | s -> Error ("expect: unknown verdict " ^ s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write ~dir ~name (inst : Gen.instance) expect =
  mkdir_p dir;
  Ddg_io.write_file (Filename.concat dir (name ^ ".ddg")) inst.Gen.ddg;
  Out_channel.with_open_text
    (Filename.concat dir (name ^ ".machine"))
    (fun oc -> output_string oc (Machine_io.to_string inst.Gen.fabric));
  let oc = open_out (Filename.concat dir (name ^ ".repro")) in
  Printf.fprintf oc "# hca fuzz reproducer; replay with: hca fuzz --replay %s\n"
    dir;
  Printf.fprintf oc "seed %d\n" inst.Gen.seed;
  Printf.fprintf oc "ddg %s.ddg\n" name;
  Printf.fprintf oc "machine %s.machine\n" name;
  Printf.fprintf oc "expect %s\n" (expectation_to_string expect);
  close_out oc

let read path =
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error e -> Error e
  in
  (* [key rest] records, the latest first, so a repeated key overrides. *)
  let* records =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun line -> line <> "" && line.[0] <> '#')
    |> List.fold_left
         (fun acc line ->
           let* acc = acc in
           let key, rest =
             match String.index_opt line ' ' with
             | None -> (line, "")
             | Some i ->
                 ( String.sub line 0 i,
                   String.trim (String.sub line i (String.length line - i)) )
           in
           if List.mem key [ "seed"; "ddg"; "machine"; "expect" ] then
             Ok ((key, rest) :: acc)
           else Error (path ^ ": unknown record " ^ key))
         (Ok [])
  in
  let field key =
    List.assoc_opt key records
    |> Option.to_result ~none:(path ^ ": missing " ^ key ^ " line")
  in
  let sibling key =
    Result.map (Filename.concat (Filename.dirname path)) (field key)
  in
  let* seed =
    let* s = field "seed" in
    Option.to_result ~none:(path ^ ": bad seed line") (int_of_string_opt s)
  in
  let* expect = Result.bind (field "expect") expectation_of_string in
  let* ddg = Result.bind (sibling "ddg") Ddg_io.read_file in
  let* machine_file = sibling "machine" in
  let* fabric =
    Machine_io.read_file machine_file
    |> Result.map_error (fun e -> machine_file ^ ": " ^ e)
  in
  Ok
    {
      name = Filename.remove_extension (Filename.basename path);
      instance = { Gen.seed; ddg; fabric };
      expect;
    }

let load_dir dir =
  let* files =
    try Ok (Sys.readdir dir) with Sys_error e -> Error e
  in
  let repros =
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f ".repro")
    |> List.sort compare
  in
  List.fold_left
    (fun acc f ->
      let* entries = acc in
      let* e = read (Filename.concat dir f) in
      Ok (e :: entries))
    (Ok []) repros
  |> Result.map List.rev

(* Replay lifts the oracle caps: a gap expectation must be
   re-certified by the solver, not merely remembered, so the corpus
   keeps honest when the heuristic improves. *)
let replay_opts =
  {
    Diff.default_opts with
    oracle_size_cap = max_int;
    oracle_cn_cap = max_int;
    oracle_conflicts = 200_000;
  }

let replay ?(opts = replay_opts) entry =
  let d = Diff.run ~opts entry.instance in
  let line = Diff.verdict_line d in
  match entry.expect with
  | Expect_ok ->
      if d.Diff.failures = [] then Ok line
      else Error (Printf.sprintf "%s: expected ok, got: %s" entry.name line)
  | Expect_fail check ->
      if List.exists (fun f -> f.Diff.check = check) d.Diff.failures then
        Ok line
      else
        Error
          (Printf.sprintf "%s: expected a %s failure, got: %s" entry.name
             check line)
  | Expect_gap g -> (
      match Diff.gap d with
      | Some got when got = g && d.Diff.failures = [] -> Ok line
      | Some got when got <> g ->
          Error
            (Printf.sprintf
               "%s: optimality gap changed: expected %d, got %d — the \
                heuristic %s on this instance; update the corpus entry"
               entry.name g got
               (if got < g then "improved" else "regressed"))
      | Some _ ->
          Error
            (Printf.sprintf "%s: gap matches but checks failed: %s" entry.name
               line)
      | None ->
          Error
            (Printf.sprintf "%s: oracle no longer proves the optimum: %s"
               entry.name line))
