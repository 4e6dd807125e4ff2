(** The pre-refactor tree-walking interpreter, kept as the single
    reference semantics of the 3-address code.

    {!Interp.run} executes through the pre-compiled execution core
    ([Asipfb_exec]); this module keeps the original naive tree-walker
    (a register array per frame, hashtable profile, label lookup per
    jump) as an oracle, with operator evaluation of its own rather than
    {!Asipfb_exec.Ops}.  {!run} and {!run_traced} share one loop.  The
    differential property tests check that the core agrees with {!run}
    on the return value, final memory, profile and instruction count for
    random valid programs; the throughput bench reports the core's
    speedup over this baseline; {!Fallback} recomputes on it when the
    core fails; and the translation validator states its counterexamples
    in the observation traces of {!run_traced}. *)

val run :
  ?fuel:int ->
  ?inputs:(string * Value.t array) list ->
  ?faults:Fault.t ->
  Asipfb_ir.Prog.t ->
  Interp.outcome
(** Same contract as {!Interp.run}, pre-refactor behavior.  Raises
    {!Interp.Runtime_error} (never {!Interp.Fuel_exhausted} — fuel
    exhaustion predates that distinction here, reported as
    ["out of fuel (infinite loop?)"]). *)

(** {1 Observation traces} *)

type event =
  | Store of { region : string; index : int; value : Value.t }
  | Call of { callee : string; args : Value.t list }
  | Return of Value.t option
      (** Emitted for every executed [Ret], innermost frames included. *)
  | Trap of { message : string }
      (** Terminal: always the last event of a trapping trace. *)

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string
val event_equal : event -> event -> bool

type result =
  | Returned of Value.t option  (** The entry function returned. *)
  | Trapped of string  (** The message {!run} would raise. *)
  | Out_of_fuel

type traced = {
  trace : event list;  (** Observations, in execution order. *)
  result : result;
  memory : Memory.t;  (** Final region memory. *)
  instrs_executed : int;
}

val run_traced :
  ?fuel:int ->
  ?inputs:(string * Value.t array) list ->
  Asipfb_ir.Prog.t ->
  traced
(** {!run}'s loop (default fuel 50,000,000), recording the stores, calls
    and returns it executes.  Two programs are observationally equivalent
    on an input exactly when their traces, results and final memories
    agree.  Never raises on program behavior: traps, unknown
    labels/functions, uninitialized reads, type confusion and
    out-of-bounds accesses end the trace with a [Trap] event.
    @raise Invalid_argument if an input region is unknown or overflows
    its region. *)
