(** Kernels beyond Table 1: the other loop shapes the paper's
    introduction motivates (filtering, transforms, motion estimation,
    colour conversion).  They exercise corners the four paper loops do
    not — deep reductions, wide independent lanes, heavy recurrences —
    and feed the extended benches and property tests. *)

val fft_stage : unit -> Hca_ddg.Ddg.t
(** One radix-2 decimation-in-time stage over 8 complex points: four
    butterflies with twiddle multiplication — the classic reconfigurable
    array showcase. *)

val rgb2ycc : unit -> Hca_ddg.Ddg.t
(** RGB to YCbCr conversion of two pixels: nine multiplies per pixel,
    three clipped outputs — wide, shallow, store-heavy. *)

val sad16 : unit -> Hca_ddg.Ddg.t
(** Sum of absolute differences over a 16-pixel row with a loop-carried
    accumulator: the motion-estimation inner loop — a reduction feeding
    a recurrence. *)

val autocorr : unit -> Hca_ddg.Ddg.t
(** Autocorrelation lags 0..3 over a sliding window: four parallel MAC
    recurrences sharing one loaded sample — recurrence-dominated. *)

val all : (string * (unit -> Hca_ddg.Ddg.t)) list
(** Name-indexed, in the order above. *)
