open Hca_ddg
open Hca_machine

type ddg_knobs = {
  min_size : int;
  max_size : int;
  mem_ratio : float;
  const_ratio : float;
  max_fanout : int;
  recurrences : int;
  max_distance : int;
  opcode_mix : Opcode.t array;
}

let default_ddg_knobs =
  {
    min_size = 6;
    max_size = 24;
    mem_ratio = 0.2;
    const_ratio = 0.1;
    max_fanout = 4;
    recurrences = 2;
    max_distance = 2;
    opcode_mix =
      [|
        Opcode.Add; Sub; Mul; Mac; Shl; Shr; And_; Or_; Xor; Min; Max; Abs;
        Clip; Cmp; Sel; Mov;
      |];
  }

type machine_knobs = {
  fanout_choices : int array array;
  min_cap : int;
  max_cap : int;
  min_dma : int;
  max_dma : int;
}

let default_machine_knobs =
  {
    fanout_choices = [| [| 2; 2 |]; [| 4; 2 |]; [| 2; 2; 2 |]; [| 4; 4 |] |];
    min_cap = 2;
    max_cap = 8;
    min_dma = 2;
    max_dma = 8;
  }

type instance = { seed : int; ddg : Ddg.t; fabric : Dspfabric.t }

let check_ddg_knobs k =
  if k.min_size < 2 || k.max_size < k.min_size then
    invalid_arg "Gen.ddg: need 2 <= min_size <= max_size";
  if k.mem_ratio < 0. || k.const_ratio < 0.
     || k.mem_ratio +. k.const_ratio > 0.9
  then invalid_arg "Gen.ddg: ratios must be >= 0 and sum below 0.9";
  if k.max_fanout < 1 then invalid_arg "Gen.ddg: max_fanout must be >= 1";
  if k.recurrences < 0 || k.max_distance < 1 then
    invalid_arg "Gen.ddg: recurrences >= 0 and max_distance >= 1 required";
  if Array.length k.opcode_mix = 0 then
    invalid_arg "Gen.ddg: empty opcode mix";
  Array.iter
    (fun op ->
      match op with
      | Opcode.Const _ | Load | Store | Agen | Recv ->
          invalid_arg "Gen.ddg: opcode_mix must contain plain ALU opcodes"
      | _ -> ())
    k.opcode_mix

(* Sub-streams: the kernel and machine shapes of one seed come from
   distinct splitmix64 streams so that changing a machine knob never
   perturbs the kernel drawn for the same seed (and vice versa). *)
let ddg_stream seed = Hca_util.Prng.create ((seed * 2) + 1)

let fabric_stream seed = Hca_util.Prng.create ((seed * 2) + 2)

let ddg ?(knobs = default_ddg_knobs) ~seed () =
  check_ddg_knobs knobs;
  let rng = ddg_stream seed in
  let n =
    knobs.min_size + Hca_util.Prng.int rng (knobs.max_size - knobs.min_size + 1)
  in
  let b = Ddg.Builder.create ~name:(Printf.sprintf "fuzz-%d" seed) () in
  let out_deg = Array.make n 0 in
  (* Prefer producers still under the fan-out cap; fall back to any
     earlier node so the "every consumer has an operand" invariant never
     bends to the soft cap. *)
  let pick_operand rng i =
    let pick () = Hca_util.Prng.int rng i in
    let rec attempt tries best =
      if tries = 0 then best
      else
        let c = pick () in
        if out_deg.(c) < knobs.max_fanout then c
        else attempt (tries - 1) best
    in
    let src = attempt 4 (pick ()) in
    out_deg.(src) <- out_deg.(src) + 1;
    src
  in
  let stores = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 then
      ignore (Ddg.Builder.add_instr b (Opcode.Const (Hca_util.Prng.int rng 256)))
    else begin
      let roll = Hca_util.Prng.float rng 1.0 in
      let forced_store = i = n - 1 && !stores = 0 in
      if (not forced_store) && roll < knobs.const_ratio then
        ignore
          (Ddg.Builder.add_instr b (Opcode.Const (Hca_util.Prng.int rng 256)))
      else if forced_store || roll < knobs.const_ratio +. knobs.mem_ratio then begin
        (* Memory op: Store needs an address and a value; Load an address. *)
        let is_store = forced_store || Hca_util.Prng.bool rng in
        if is_store then begin
          incr stores;
          let id = Ddg.Builder.add_instr b Opcode.Store in
          let addr = pick_operand rng i in
          let value = pick_operand rng i in
          Ddg.Builder.add_dep b ~src:addr ~dst:id;
          Ddg.Builder.add_dep b ~src:value ~dst:id
        end
        else begin
          let id = Ddg.Builder.add_instr b Opcode.Load in
          let addr = pick_operand rng i in
          Ddg.Builder.add_dep b ~src:addr ~dst:id
        end
      end
      else begin
        let op = Hca_util.Prng.pick rng knobs.opcode_mix in
        let id = Ddg.Builder.add_instr b op in
        let arity = 1 + Hca_util.Prng.int rng 2 in
        for _ = 1 to arity do
          let src = pick_operand rng i in
          Ddg.Builder.add_dep b ~src ~dst:id
        done
      end
    end
  done;
  (* Loop-carried recurrences: distance >= 1 edges may point anywhere,
     including self-loops — the distance-0 subgraph stays acyclic.
     Appended after the operand edges, so they never displace the
     operands the reference semantics reads first. *)
  for _ = 1 to knobs.recurrences do
    let src = Hca_util.Prng.int rng n in
    let dst = Hca_util.Prng.int rng (src + 1) in
    let distance = 1 + Hca_util.Prng.int rng knobs.max_distance in
    Ddg.Builder.add_dep b ~distance ~src ~dst
  done;
  Ddg.Builder.freeze b

let desc ?(knobs = default_machine_knobs) ?(hetero = 0.) ~seed () =
  if Array.length knobs.fanout_choices = 0 then
    invalid_arg "Gen.fabric: empty fanout_choices";
  if knobs.min_cap < 1 || knobs.max_cap < knobs.min_cap then
    invalid_arg "Gen.fabric: need 1 <= min_cap <= max_cap";
  if knobs.min_dma < 1 || knobs.max_dma < knobs.min_dma then
    invalid_arg "Gen.fabric: need 1 <= min_dma <= max_dma";
  if hetero < 0. || hetero > 1. then
    invalid_arg "Gen.desc: hetero must be in [0, 1]";
  let rng = fabric_stream seed in
  let cap () =
    knobs.min_cap + Hca_util.Prng.int rng (knobs.max_cap - knobs.min_cap + 1)
  in
  let fanouts = Array.copy (Hca_util.Prng.pick rng knobs.fanout_choices) in
  let n = cap () and m = cap () and k = cap () in
  let dma =
    knobs.min_dma + Hca_util.Prng.int rng (knobs.max_dma - knobs.min_dma + 1)
  in
  let base = Dspfabric.make ~fanouts ~dma_ports:dma ~n ~m ~k () in
  if hetero <= 0. then base
  else begin
    (* Continued output of the fabric stream: the tables are a pure
       function of (knobs, hetero, seed), and [hetero = 0] never draws,
       so the homogeneous path is bit-identical to the old [fabric]. *)
    let deviant = ref false in
    let tables =
      Array.init (Dspfabric.total_cns base) (fun _ ->
          if Hca_util.Prng.float rng 1.0 >= hetero then Resource.cn
          else begin
            deviant := true;
            match Hca_util.Prng.int rng 3 with
            | 0 -> { Resource.alus = 2; ags = 1 } (* ALU/MUL-heavy *)
            | 1 -> { Resource.alus = 1; ags = 0 } (* pure compute *)
            | _ -> { Resource.alus = 1; ags = 2 } (* memory-heavy *)
          end)
    in
    if not !deviant then base
    else
      Machine_desc.with_tables
        ~name:(Machine_desc.name base ^ "+het")
        base tables
  end

let fabric ?knobs ~seed () = desc ?knobs ~hetero:0. ~seed ()

let instance ?ddg_knobs ?machine_knobs ~seed () =
  { seed; ddg = ddg ?knobs:ddg_knobs ~seed (); fabric = fabric ?knobs:machine_knobs ~seed () }

let needs_operand (op : Opcode.t) =
  match op with Const _ | Agen -> false | _ -> true

let well_formed g =
  let ok = ref true in
  Array.iteri
    (fun id (i : Instr.t) ->
      if needs_operand i.Instr.opcode && Ddg.preds g id = [] then ok := false)
    (Ddg.instrs g);
  !ok
