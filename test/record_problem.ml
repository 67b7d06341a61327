(* The problem a committed subproblem was searched on, rebuilt from its
   record: the working set is the record's instruction ids, the PG
   carries the subproblem's ports, and the port limit is the level's.
   The rebuild must give back the record's own nodes (instruction,
   value and pin of each), which is checked here, so the tests that
   used to read the problem the hierarchy kept still see that very
   problem. *)

open Hca_core
open Hca_machine

let of_subresult (res : Hierarchy.t) (sub : Hierarchy.subresult) =
  let path = sub.Hierarchy.path in
  let view =
    Dspfabric.level_view res.Hierarchy.fabric ~level:(List.length path)
  in
  let name =
    match path with
    | [] -> "0"
    | _ -> "0," ^ String.concat "," (List.map string_of_int path)
  in
  let ws = List.filter (fun g -> g >= 0) (Array.to_list sub.Hierarchy.global) in
  match
    Problem.of_working_set ~name ~ddg:res.Hierarchy.ddg ~ws ~pg:sub.Hierarchy.pg
      ~max_in_ports:view.Dspfabric.max_in_ports ()
  with
  | Error e -> failwith ("rebuilding " ^ name ^ ": " ^ e)
  | Ok p ->
      let id_or_none = Option.value ~default:(-1) in
      let same f g = Array.map f (Problem.nodes p) = g in
      if
        not
          (same (fun nd -> id_or_none nd.Problem.global) sub.Hierarchy.global
          && same (fun nd -> nd.Problem.value) sub.Hierarchy.value
          && same (fun nd -> id_or_none nd.Problem.pinned) sub.Hierarchy.pin)
      then failwith ("rebuilding " ^ name ^ ": nodes differ from the record");
      p
