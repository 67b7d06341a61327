open Hca_ddg
open Hca_machine

type t = {
  rcp : Rcp.t;
  ddg : Ddg.t;
  ii : int;
  state : State.t;
  topology : (int * int) list;
  projected_mii : int;
  copies : int;
  explored : int;
}

let solve ?(config = Config.default) rcp ddg =
  let pg = Rcp.pattern_graph rcp in
  let problem = Problem.of_ddg ~name:(Ddg.name ddg ^ ".rcp") ~ddg ~pg () in
  let lower = Mii.rec_mii ddg in
  let limit = (4 * Ddg.size ddg) + 16 in
  let explored = ref 0 in
  let rec climb ii last_error =
    if ii > limit then
      Error
        (Option.value last_error
           ~default:(Printf.sprintf "no assignment up to II=%d" limit))
    else
      match See.solve ~config problem ~ii with
      | Error f ->
          incr explored;
          climb (ii + 1) (Some (See.message f ~ii))
      | Ok outcome ->
          explored := !explored + outcome.See.explored;
          let state = outcome.See.state in
          let topology =
            List.map
              (fun (src, dst, _) -> (src, dst))
              (Copy_flow.Frozen.arcs (Copy_flow.freeze (State.flow state)))
          in
          let summary = State.summary state ~ii in
          Ok
            {
              rcp;
              ddg;
              ii;
              state;
              topology;
              projected_mii = summary.Cost.projected_ii;
              copies = summary.Cost.copies;
              explored = !explored;
            }
  in
  climb lower None

let validate t =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* Topology feasibility: ring links only, within the port budget. *)
  let in_degree = Array.make (Rcp.clusters t.rcp) 0 in
  List.iter
    (fun (src, dst) ->
      if not (List.mem src (Rcp.potential_sources t.rcp dst)) then
        fail "link %d->%d is not a ring connection" src dst;
      in_degree.(dst) <- in_degree.(dst) + 1)
    t.topology;
  Array.iteri
    (fun c d ->
      if d > Rcp.in_ports t.rcp then
        fail "cluster %d uses %d input ports (limit %d)" c d
          (Rcp.in_ports t.rcp))
    in_degree;
  (* Heterogeneity: memory instructions only on memory clusters. *)
  Array.iter
    (fun (i : Instr.t) ->
      if Opcode.unit_class i.opcode = Opcode.Ag then
        match State.placement t.state i.id with
        | Some c when not (Rcp.is_memory_cluster t.rcp c) ->
            fail "memory instruction %%%d on non-memory cluster %d" i.id c
        | Some _ -> ()
        | None -> fail "instruction %%%d unplaced" i.id)
    (Ddg.instrs t.ddg);
  (* Every inter-cluster dependence rides a configured link (possibly
     through Route-Allocator detours, i.e. a path of links carrying the
     value). *)
  let flow = Copy_flow.freeze (State.flow t.state) in
  Ddg.iter_edges
    (fun (e : Ddg.edge) ->
      match (State.placement t.state e.src, State.placement t.state e.dst) with
      | Some a, Some b when a <> b ->
          let n = Rcp.clusters t.rcp in
          let seen = Array.make n false in
          let q = Queue.create () in
          seen.(a) <- true;
          Queue.push a q;
          let found = ref false in
          while (not !found) && not (Queue.is_empty q) do
            let x = Queue.pop q in
            List.iter
              (fun y ->
                if
                  (not !found) && y < n && (not seen.(y))
                  && List.mem e.src (Copy_flow.Frozen.copies flow ~src:x ~dst:y)
                then
                  if y = b then found := true
                  else begin
                    seen.(y) <- true;
                    Queue.push y q
                  end)
              (Copy_flow.Frozen.real_out_neighbors flow x)
          done;
          if not !found then
            fail "dependence %%%d->%%%d has no configured path (%d->%d)" e.src
              e.dst a b
      | Some _, Some _ -> ()
      | _ -> fail "edge %%%d->%%%d not fully placed" e.src e.dst)
    t.ddg;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s on %s: II=%d, projected MII=%d, %d copies over %d links@,links:"
    (Ddg.name t.ddg) (Rcp.name t.rcp) t.ii t.projected_mii t.copies
    (List.length t.topology);
  List.iter (fun (a, b) -> Format.fprintf ppf " %d->%d" a b) t.topology;
  Format.fprintf ppf "@]"
