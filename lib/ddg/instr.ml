type id = int

type t = {
  id : id;
  opcode : Opcode.t;
  name : string;
}

let make ~id ?name opcode =
  let name = match name with Some n -> n | None -> "%" ^ string_of_int id in
  { id; opcode; name }

let pp ppf t = Format.fprintf ppf "%%%d:%s=%a" t.id t.name Opcode.pp t.opcode
