open Hca_ddg

type t = {
  alus : int;
  ags : int;
}

let zero = { alus = 0; ags = 0 }

let cn = { alus = 1; ags = 1 }

let scale k r = { alus = k * r.alus; ags = k * r.ags }

let add a b = { alus = a.alus + b.alus; ags = a.ags + b.ags }

let of_unit_class = function
  | Opcode.Alu -> { alus = 1; ags = 0 }
  | Opcode.Ag -> { alus = 0; ags = 1 }

let demand g ids =
  List.fold_left
    (fun acc id ->
      add acc (of_unit_class (Opcode.unit_class (Ddg.instr g id).Instr.opcode)))
    zero ids

let issue_slots t = max t.alus t.ags

let fits ~demand ~capacity ~ii =
  demand.alus <= capacity.alus * ii
  && demand.ags <= capacity.ags * ii
  && demand.alus + demand.ags <= issue_slots capacity * ii

let ceil_div a b = (a + b - 1) / b

let min_ii ~demand ~capacity =
  let need amount cap =
    if amount = 0 then 1
    else if cap = 0 then max_int
    else ceil_div amount cap
  in
  max
    (need (demand.alus + demand.ags) (issue_slots capacity))
    (max (need demand.alus capacity.alus) (need demand.ags capacity.ags))

let equal a b = a.alus = b.alus && a.ags = b.ags

let pp ppf r = Format.fprintf ppf "{alu=%d; ag=%d}" r.alus r.ags
