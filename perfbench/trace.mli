(** In-memory span recorder for the traced run.

    Spans are recorded by the benchmark around its own calls into each
    layer's public functions, kept in memory, and written out once at
    the end as Chrome trace-event JSON (opens in https://ui.perfetto.dev
    or chrome://tracing).  A disabled recorder costs one branch per
    call, so untraced runs share the same code path. *)

type span = {
  id : int;  (** From 1, in start order. *)
  name : string;
  start : float;  (** Seconds, [Unix.gettimeofday]. *)
  stop : float;
  parent : int;  (** Enclosing span's id; [0] for a root span. *)
  request : int;  (** Request id for daemon frames; [-1] otherwise. *)
}

type t

val create : enabled:bool -> t

val span : t -> ?request:int -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span named [name] (nested under the span
    that is open when it starts).  Single-domain: call it only from the
    benchmark's main domain. *)

val record : t -> ?request:int -> string -> start:float -> stop:float -> unit
(** Add a span timed by the caller (a daemon request, whose lifetime
    overlaps others'), nested under the span open now. *)

val spans : t -> span list
(** Recorded spans, in start order. *)

val total : ?from:float -> ?until:float -> t -> string -> float
(** Summed duration of the spans named [name] that lie within
    [\[from, until\]] (default: all of them), in seconds. *)

val coverage : t -> from:float -> until:float -> float
(** Share of the interval [\[from, until\]] covered by root spans. *)

val write_chrome : t -> string -> unit
(** Write the spans to [path] as a trace-event JSON document. *)
