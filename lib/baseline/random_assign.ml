open Hca_ddg
open Hca_machine

type t = {
  cn_of_instr : int array;
  copies : int;
  projected_mii : int;
  seed : int;
}

let run ?(seed = 1) fabric ddg ~ii =
  let cns = Dspfabric.total_cns fabric in
  let n = Ddg.size ddg in
  if n > cns * ii then Error "not enough issue slots at this II"
  else begin
    let rng = Hca_util.Prng.create seed in
    let order = Array.init n (fun i -> i) in
    Hca_util.Prng.shuffle rng order;
    let load = Array.make cns 0 in
    let cn_of_instr = Array.make n (-1) in
    Array.iter
      (fun i ->
        (* Rejection-sample a CN with remaining budget; fall back to a
           linear scan when unlucky. *)
        let rec pick tries =
          if tries = 0 then
            let rec scan c = if load.(c) < ii then c else scan ((c + 1) mod cns) in
            scan 0
          else
            let c = Hca_util.Prng.int rng cns in
            if load.(c) < ii then c else pick (tries - 1)
        in
        let c = pick 16 in
        load.(c) <- load.(c) + 1;
        cn_of_instr.(i) <- c)
      order;
    let copies, projected_mii = Flat_score.score fabric ddg cn_of_instr in
    Ok { cn_of_instr; copies; projected_mii; seed }
  end
