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

let priority_name = function
  | Affinity -> "affinity"
  | Criticality -> "criticality"
  | Source_order -> "source-order"

let pp ppf t =
  Format.fprintf ppf
    "{beam=%d; cand=%d; prio=%s; router=%b; hops=%d; patience=%d; weights=%a}"
    t.beam_width t.candidate_width (priority_name t.priority) t.enable_router
    t.max_route_hops t.ii_patience Cost.pp_weights t.weights
