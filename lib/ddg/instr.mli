(** A single IR instruction: a node of the data dependency graph.

    Instruction ids are dense indices assigned by {!Ddg.Builder}; the id
    of an instruction is also its position in the frozen graph's node
    array. *)

type id = int

type t = {
  id : id;
  opcode : Opcode.t;
  name : string;  (** human label, e.g. ["acc0"]; never used for identity *)
}

val make : id:id -> ?name:string -> Opcode.t -> t
(** Defaults [name] to ["%<id>"]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [%id:name=opcode]. *)
