open Hca_ddg

type event = {
  store : Instr.id;
  iteration : int;
  address : Semantics.value;
  value : Semantics.value;
}

type trace = event list

(* Values per (node, iteration), filled iteration by iteration in
   topological order: intra-iteration operands come from this
   iteration, carried ones from [iteration - distance]. *)
let execute ?(iterations = 8) ddg =
  let n = Ddg.size ddg in
  let values = Array.make (n * iterations) 0l in
  let order = Graph_algo.topological_order ddg in
  let events = ref [] in
  for k = 0 to iterations - 1 do
    Array.iter
      (fun i ->
        let instr = Ddg.instr ddg i in
        let operands =
          List.map
            (fun (e : Ddg.edge) ->
              let src_iter = k - e.distance in
              if src_iter < 0 then Semantics.initial e.src
              else values.((e.src * iterations) + src_iter))
            (Ddg.preds ddg i)
        in
        let v = Semantics.eval instr.Instr.opcode operands in
        values.((i * iterations) + k) <- v;
        if instr.Instr.opcode = Opcode.Store then begin
          let address = match operands with a :: _ -> a | [] -> 0l in
          events := { store = i; iteration = k; address; value = v } :: !events
        end)
      order
  done;
  (values, List.rev !events)

let run ?iterations ddg = snd (execute ?iterations ddg)

let value_of ?(iterations = 8) ddg i k =
  if k < 0 || k >= iterations then invalid_arg "Interp.value_of: bad iteration";
  let values, _ = execute ~iterations ddg in
  values.((i * iterations) + k)

let equal_trace ~by_name ~by_name' a b =
  let key name (e : event) = (name e.store, e.iteration, e.address, e.value) in
  let sort keyed = List.sort compare keyed in
  sort (List.map (key by_name) a) = sort (List.map (key by_name') b)
