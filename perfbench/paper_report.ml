(* paper_report: a closed loop with one caller.  Each iteration is what
   `asipfb report` does, in-process: the whole suite through
   Pipeline.run_suite on a fresh engine at the CLI's defaults, then every
   Experiments artifact in the CLI's order, rendered to the same bytes. *)

open Measure
module Pipeline = Asipfb.Pipeline
module Experiments = Asipfb.Experiments
module Engine = Asipfb_engine.Engine
module Uarch = Asipfb_asip.Uarch
module Opt_level = Asipfb_sched.Opt_level

(* The CLI's artifact list and calls; flat is the CLI's default uarch. *)
let artifacts : (string * (Experiments.suite -> string)) list =
  let uarch = Uarch.flat in
  [
    ("table1", fun _ -> Experiments.table1 ());
    ("figure3", fun s -> Experiments.figure_combined s ~length:2);
    ("figure4", fun s -> Experiments.figure_combined s ~length:4);
    ("figure_l3", fun s -> Experiments.figure_combined s ~length:3);
    ("figure_l5", fun s -> Experiments.figure_combined s ~length:5);
    ("table2", Experiments.table2);
    ("figure5", fun s -> Experiments.figure_per_benchmark s ~length:2);
    ("figure6", fun s -> Experiments.figure_per_benchmark s ~length:4);
    ("table3", Experiments.table3);
    ("ilp", Experiments.ilp_report);
    ("asip", Experiments.asip_report ~uarch);
    ("vliw", Experiments.vliw_report ~uarch);
    ("resched", Experiments.resched_report ~uarch);
    ("ablation_pipelining", Experiments.ablation_pipelining);
    ("ablation_cleanup", Experiments.ablation_cleanup);
    ("codegen", Experiments.codegen_report ~uarch);
    ("timing", Experiments.timing_report ~uarch);
    ("ablation_motion", Experiments.ablation_motion);
    ("opmix", Experiments.opmix_report);
    ("extra", Experiments.extra_report);
    ("validation_unroll", Experiments.validation_unroll);
  ]

let artifact_metric name = "core.artifact." ^ name

(* The fir goldens the test suite pins (flat baseline 40739 cycles, 32882
   with the chosen ASIP); they must appear in the report. *)
let goldens = [ "cycles 40739 -> 32882"; "baseline 40739 cycles -> asip 32882" ]

type iteration = {
  text : string;
  engine : Engine.t;
  suite : Pipeline.analysis list;
}

let iteration tr =
  let engine = Engine.create ~uarch:(Uarch.key Uarch.flat) () in
  let r =
    Trace.span tr "engine.run_suite" (fun () ->
        Pipeline.run_suite ~engine ~on_error:`Raise ())
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun (name, produce) ->
      let text = Trace.span tr (artifact_metric name) (fun () -> produce r.analyses) in
      Printf.bprintf buf "==== %s ====\n%s\n" name text)
    artifacts;
  { text = Buffer.contents buf; engine; suite = r.analyses }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Reference bytes: what the CLI prints, read from a child process.
   Running it is the workload's set-up, and it is a cold process doing
   the whole job, so set-up time is the cold `asipfb report` time. *)
let reference ~asipfb =
  let ic = Unix.open_process_args_in asipfb [| asipfb; "report" |] in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> text
  | _ -> failwith "perfbench: `asipfb report` failed"

let run ~asipfb ~seconds ~trace_file =
  let traced = Option.is_some trace_file in
  let setup_s, expected = median_setup (fun () -> reference ~asipfb) in
  let golden_ok = List.for_all (fun g -> contains ~sub:g expected) goldens in
  if not golden_ok then prerr_endline "perfbench: fir goldens missing from `asipfb report`";
  let untraced = Trace.create ~enabled:false in
  (* Warm-up: lazy initialisation finishes before anything is timed. *)
  ignore (iteration untraced);
  (* Each sample keeps only whether its bytes matched; the last
     iteration is kept for the checks that follow, so earlier suites are
     garbage and do not inflate memory or GC work. *)
  let last = ref None in
  let timed tr seconds =
    repeat_for ~seconds (fun () ->
        let it = iteration tr in
        last := Some it;
        String.equal it.text expected)
  in
  let mismatches samples = List.length (List.filter (fun (_, ok) -> not ok) samples) in
  if not traced then begin
    let samples = timed untraced seconds in
    let last = Option.get !last in
    let failed = mismatches samples + if golden_ok then 0 else 1 in
    let secs = List.map fst samples in
    let p50, tail = latency_pair ~what:"report" (List.map ms secs) in
    {
      attempted = List.length samples;
      failed;
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MB" (self_peak_rss_mb ());
          metric "latency_p50_ms" "ms" p50;
          metric "latency_tail_ms" "ms" tail;
          metric "throughput_per_s" "1/s"
            (float_of_int (List.length secs) /. List.fold_left ( +. ) 0. secs);
          metric "asip_speedup" "x" (asip_speedup (timing_reports last.suite));
        ];
    }
  end
  else begin
    (* Half the time untraced, half traced: the difference of the two
       medians is the tracing overhead. *)
    let plain = timed untraced (seconds /. 2.) in
    let tr = Trace.create ~enabled:true in
    let from = now () in
    let traced_samples, minor, majors =
      gc_window (fun () ->
          Trace.span tr "paper_report" (fun () -> timed tr (seconds /. 2.)))
    in
    let last = Option.get !last in
    let reports = Trace.span tr "asip.timing_reports" (fun () -> timing_reports last.suite) in
    let measured_cycles =
      List.fold_left (fun acc (r : Asipfb.Timing.report) -> acc + r.t_measured_cycles) 0 reports
    in
    let layers, replay_failures =
      Replay.traced tr Replay.report_plan
        (List.map (fun (a : Pipeline.analysis) -> a.benchmark) last.suite)
        ~engine_fps:(List.map Replay.fingerprint last.suite)
        ~check:(fun c -> c.target_cycles = measured_cycles)
    in
    let until = now () in
    let failed =
      mismatches plain + mismatches traced_samples + replay_failures
      + if golden_ok then 0 else 1
    in
    let attempted = List.length plain + List.length traced_samples + Replay.passes in
    let per_iteration name =
      Stats.median
        (List.filter_map
           (fun (s : Trace.span) ->
             if s.name = name then Some (s.stop -. s.start) else None)
           (Trace.spans tr))
    in
    let median_s xs = Stats.median (List.map fst xs) in
    Option.iter (Trace.write_chrome tr) trace_file;
    {
      attempted;
      failed;
      metrics =
        List.map
          (fun (name, _) ->
            let span = artifact_metric name in
            metric (span ^ "_s") "s" (per_iteration span))
          artifacts
        @ [ metric "engine.run_suite_s" "s" (per_iteration "engine.run_suite") ]
        @ engine_metrics (Engine.stats last.engine)
        @ trace_metrics ~minor ~majors ~ops:(List.length traced_samples)
            ~coverage:(Trace.coverage tr ~from ~until)
            ~overhead_s:(median_s traced_samples -. median_s plain)
            ~failed ~attempted
        @ layers;
    }
  end
