(** Summary statistics over benchmark samples. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val quantiles : ?n:int -> float array -> float list
(** The [n - 1] cut points (default [n = 4], the quartiles) exactly as
    Python's [statistics.quantiles] computes them with its default
    ["exclusive"] method.
    @raise Invalid_argument with fewer than two samples. *)

val mad : float array -> float
(** Median absolute deviation from the median. *)

val geomean : float array -> float
(** @raise Invalid_argument on an empty array or a sample [<= 0]. *)

type percentile = {
  value : float;  (** the nearest-rank value, even when refused; [nan] without samples *)
  samples : int;
  beyond : int;  (** samples ranked strictly above the percentile *)
}

val min_beyond : int
(** 10: a percentile needs this many samples beyond it. *)

val percentile : float array -> float -> (percentile, percentile) result
(** [percentile xs p] is the nearest-rank [p]-th percentile, [0 < p < 100].
    [Error] when fewer than {!min_beyond} samples rank above it; both
    cases carry the sample counts, which a report always prints. *)
