type priority =
  | Affinity
  | Criticality
  | Source_order

type t = {
  beam_width : int;
  candidate_width : int;
  priority : priority;
  weights : Cost.weights;
  enable_router : bool;
  max_route_hops : int;
  leaf_feed_fanin_cap : int;
  mapper_spread : bool;
  max_alternatives : int;
  ii_patience : int;
  max_ii : int;
}

let default =
  {
    beam_width = 8;
    candidate_width = 4;
    priority = Affinity;
    weights = Cost.default_weights;
    enable_router = true;
    max_route_hops = 4;
    leaf_feed_fanin_cap = 4;
    mapper_spread = false;
    max_alternatives = 4;
    ii_patience = 3;
    max_ii = 256;
  }

let greedy = { default with beam_width = 1; candidate_width = 1 }

let search ?beam ?candidates ?spread ?fanin_cap () =
  match
    List.find_map
      (function name, Some n when n < 1 -> Some (name, n) | _ -> None)
      [ ("beam", beam); ("candidates", candidates); ("fanin_cap", fanin_cap) ]
  with
  | Some bad -> Error bad
  | None ->
      let d = default in
      Ok
        {
          d with
          beam_width = Option.value ~default:d.beam_width beam;
          candidate_width = Option.value ~default:d.candidate_width candidates;
          mapper_spread = Option.value ~default:d.mapper_spread spread;
          leaf_feed_fanin_cap =
            Option.value ~default:d.leaf_feed_fanin_cap fanin_cap;
        }
