(* Helpers shared by the workloads: the result a run reports, repeated
   timing, process memory, and GC counters. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
}

let metric name unit_ value = { name; unit_; value }
let now = Unix.gettimeofday

(* Where traces and the daemon's socket go; ignored by git. *)
let out_dir = "perfbench/out"

let time f =
  let start = now () in
  let v = f () in
  (now () -. start, v)

(* Run [f] back to back until [seconds] have passed (at least once);
   returns each call's duration and result, in order. *)
let repeat_for ~seconds f =
  let until = now () +. seconds in
  let rec go acc =
    let acc = time f :: acc in
    if now () < until then go acc else List.rev acc
  in
  go []

(* Set-up is repeated and its median reported, so one slow start does
   not decide the metric. *)
let setup_reps = 3

let report_setup times =
  let m = Stats.median times in
  Printf.eprintf "perfbench: set-up %.3f s, median of %d\n%!" m (List.length times);
  m

let median_setup f =
  let runs = List.init setup_reps (fun _ -> time f) in
  (report_setup (List.map fst runs), snd (List.nth runs (setup_reps - 1)))

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let self_peak_rss_mb () = peak_rss_mb "self"

(* GC work per operation over a window: minor words allocated and major
   collections, from [Gc.quick_stat] deltas. *)
let gc_window f =
  let before = Gc.quick_stat () in
  let v = f () in
  let after = Gc.quick_stat () in
  ( v,
    after.minor_words -. before.minor_words,
    after.major_collections - before.major_collections )

let ms s = s *. 1000.

(* The end-to-end latency pair: median and the highest percentile with at
   least ten samples beyond it, both in ms.  With ten samples or fewer
   there is no such percentile; the maximum stands in and stderr says so. *)
let latency_pair ~what samples_ms =
  let p50 = Stats.median samples_ms in
  let tail =
    match Stats.tail samples_ms with
    | Some t ->
        Printf.eprintf "perfbench: %s p50 %.3f ms, p%.1f %.3f ms over %d samples\n%!"
          what p50 t.percentile t.value t.samples;
        t.value
    | None ->
        let mx = List.fold_left Float.max neg_infinity samples_ms in
        Printf.eprintf
          "perfbench: %s p50 %.3f ms; only %d samples, tail is the maximum %.3f ms\n%!"
          what p50 (List.length samples_ms) mx;
        mx
  in
  (p50, tail)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The Tsim target at O1 under risc5, per analysis: simulated cycles, so
   the speedups repeat exactly. *)
let timing_reports analyses =
  List.map
    (fun a ->
      Asipfb.Timing.of_analysis ~uarch:Asipfb_asip.Uarch.risc5 a
        Asipfb_sched.Opt_level.O1)
    analyses

let asip_speedup reports =
  mean (List.map (fun (r : Asipfb.Timing.report) -> r.t_measured_speedup) reports)

(* Rows every traced run reports.  [ops] is the number of operations the
   GC counters were taken over. *)
let engine_metrics (stats : Asipfb_engine.Engine.stats) =
  [
    metric "engine.cache_misses" "count"
      (float_of_int (stats.base.misses + stats.sched.misses));
    metric "supervise.retries" "count" (float_of_int stats.supervise.retries);
    metric "supervise.quarantined" "count" (float_of_int stats.supervise.quarantined);
  ]

let trace_metrics ~minor ~majors ~ops ~coverage ~overhead_s ~failed ~attempted =
  let ops = float_of_int ops in
  [
    metric "gc.minor_words" "words" (minor /. ops);
    metric "gc.major_collections" "count" (float_of_int majors /. ops);
    metric "trace.coverage" "ratio" coverage;
    metric "trace.overhead_s" "s" overhead_s;
    metric "error_ratio" "ratio" (float_of_int failed /. float_of_int attempted);
  ]
