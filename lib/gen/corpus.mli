(** Replayable reproducers on disk: [<name>.ddg] (the kernel, in
    {!Hca_ddg.Ddg_io} text format) and [<name>.machine] (the machine, in
    {!Hca_machine.Machine_io} format, so it reads back
    {!Hca_machine.Machine_desc.equal} to what was written) next to
    [<name>.repro] (the seed and the expected verdict).

    The [.repro] format is line-oriented, ['#'] comments allowed:
    {v
    seed 19
    ddg fuzz-seed19.ddg
    machine fuzz-seed19.machine
    expect fail:coherency     (or: ok | gap:2)
    v}

    [expect gap:g] pins the flat optimality gap of the heuristic on
    this instance ([achieved - oracle optimum], see {!Diff.gap}) — the
    regression corpus for the h264deblocking-class misses.  Replaying
    such an entry re-runs the oracle with the caps lifted, so the gap
    is re-certified, not merely remembered. *)

type expectation = Expect_ok | Expect_fail of string | Expect_gap of int

type entry = {
  name : string;  (** file base name, derived from the [.repro] path *)
  instance : Gen.instance;
  expect : expectation;
}

val write : dir:string -> name:string -> Gen.instance -> expectation -> unit
(** Writes [<dir>/<name>.ddg], [<dir>/<name>.machine] and
    [<dir>/<name>.repro] (creates [dir] when missing). *)

val read : string -> (entry, string) result
(** Loads one [.repro] file (the [ddg] and [machine] lines are resolved
    relative to the [.repro]'s own directory). *)

val load_dir : string -> (entry list, string) result
(** Every [*.repro] under the directory, sorted by name; the first
    unreadable entry fails the whole load. *)

val replay_opts : Diff.opts
(** The default options {!replay} runs under: {!Diff.default_opts} with
    the oracle size/CN caps lifted and a 10x conflict budget, so gap
    expectations are always re-certified. *)

val replay : ?opts:Diff.opts -> entry -> (string, string) result
(** Re-runs {!Diff.run} and compares against the expectation.
    [Ok line] is the (deterministic) verdict line on a match; [Error]
    explains the mismatch — including the "gap changed, update the
    corpus" case when the heuristic improved. *)
