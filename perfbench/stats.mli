(** Summary statistics of repeated samples, and the fixed-rate search
    behind the daemon's highest sustainable rate.  Pure: the self-tests
    in [test/] pin every function here. *)

val median : float list -> float
(** Middle value; the mean of the two middle values for an even count
    (Python's [statistics.median]).
    @raise Invalid_argument on an empty list. *)

val quartiles : float list -> float * float * float
(** [(q1, q2, q3)] by the exclusive method, exactly as Python's
    [statistics.quantiles(xs, n=4)] computes them.
    @raise Invalid_argument with fewer than two samples. *)

val iqr_share : float list -> float
(** [(q3 - q1) / median] — the run-to-run spread a bound is compared
    with. *)

type tail = {
  value : float;
  percentile : float;  (** In percent: [100 (n - beyond) / n]. *)
  samples : int;  (** [n]. *)
}

val tail : ?beyond:int -> float list -> tail option
(** The highest percentile that still has at least [beyond] (default
    10) samples above it: the [(n - beyond)]-th smallest sample.
    [None] when there are [beyond] samples or fewer. *)

(** {1 Fixed-rate phases} *)

type phase = {
  rate : float;  (** Requests per second the phase was scheduled at. *)
  latencies : float option array;
      (** Per request in due order, milliseconds from its due time to
          its response; [None] for a request that failed or never got
          a response, which counts as a miss of any latency limit. *)
}

val backlog_growing : limit_ms:float -> phase -> bool
(** The queue grew during the phase: the median latency of the last
    quarter of requests exceeds that of the first quarter by more than
    a quarter of the limit. *)

val phase_passes : limit_ms:float -> phase -> bool
(** Every request answered, the {!tail} latency within [limit_ms], and
    no {!backlog_growing}.  A phase too short to have a tail fails. *)

val max_rate :
  probe:(float -> bool) -> base:float -> grow:float -> ceiling:float ->
  steps:int -> float
(** Highest rate for which [probe] passes.  [base] is probed first:
    when it passes, rates grow geometrically by [grow] up to [ceiling]
    until one fails, then [steps] geometric bisections narrow the
    bracket.  When [base] fails, rates shrink by [grow] for up to
    [steps] probes until one passes (else the answer is [0.]) and the
    same bisection follows.  [probe] is assumed monotone: passing below
    some rate and failing above it. *)
