(* Every line the benchmark prints goes through [Hca_serve.Json]:
   [Printf "%S"] writes OCaml literals, whose [\ddd] escapes of bytes
   >= 0x80 are not JSON. *)

module Json = Hca_serve.Json

let num x = Json.Num x

let result_line ~trace ~correct ~attempted ~failed metrics =
  let declared = Decl.printed ~trace in
  let names = List.map fst metrics in
  let missing = List.filter (fun m -> not (List.mem m.Decl.name names)) declared in
  let undeclared = List.filter (fun n -> not (List.exists (fun m -> m.Decl.name = n) declared)) names in
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  if missing <> [] || undeclared <> [] || bad <> [] then
    Error
      (Printf.sprintf "metrics do not match the declaration: missing [%s], undeclared [%s], non-finite [%s]"
         (String.concat "," (List.map (fun m -> m.Decl.name) missing))
         (String.concat "," undeclared)
         (String.concat "," (List.map fst bad)))
  else
    Ok
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool correct);
              ("attempted", num (float_of_int attempted));
              ("failed", num (float_of_int failed));
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun m ->
                       (m.Decl.name, Json.Obj [ ("value", num (List.assoc m.Decl.name metrics)); ("unit", Json.Str m.Decl.unit_) ]))
                     declared) );
            ]))

let input_row ~workload ~input ~median_ms ~fastest_ms ~samples ~legal ~mii ~copies =
  Json.to_string
    (Json.Obj
       [
         ("workload", Json.Str workload);
         ("input", Json.Str input);
         ("median_ms", num median_ms);
         ("fastest_ms", num fastest_ms);
         ("samples", num (float_of_int samples));
         ("legal", Json.Bool legal);
         ("mii", num (float_of_int mii));
         ("copies", num (float_of_int copies));
       ])

let detail_line fields = Json.to_string (Json.Obj (("detail", Json.Bool true) :: fields))
