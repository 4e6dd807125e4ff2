(* Staged replay: the inner layers of a batch workload, called one public
   function at a time on the workload's own inputs, each call inside a
   span named after its layer.  The engine runs these stages on worker
   domains where the benchmark cannot wrap them, so the replay is what
   gives per-layer times; its results are checked against the engine's
   analyses so the replay is known to redo the same work. *)

module Pipeline = Asipfb.Pipeline
module Benchmark = Asipfb_bench_suite.Benchmark
module Opt_level = Asipfb_sched.Opt_level
module Schedule = Asipfb_sched.Schedule
module Interp = Asipfb_sim.Interp
module Profile = Asipfb_sim.Profile
module Prog = Asipfb_ir.Prog
module Verify = Asipfb_verify.Verify
module Select = Asipfb_asip.Select
module Codegen = Asipfb_asip.Codegen
module Tsim = Asipfb_asip.Tsim
module Uarch = Asipfb_asip.Uarch

type counts = {
  tac_instrs : int;  (** Unoptimized TAC instructions compiled. *)
  sim_instrs : int;  (** Dynamic instructions profiled. *)
  ops_out : int;  (** Instructions after scheduling, all levels. *)
  detect_calls : int;
  target_cycles : int;  (** Target-simulator cycles under [risc5]. *)
  findings : int;  (** Static-verifier findings. *)
}

let zero =
  { tac_instrs = 0; sim_instrs = 0; ops_out = 0; detect_calls = 0;
    target_cycles = 0; findings = 0 }

let add a b =
  {
    tac_instrs = a.tac_instrs + b.tac_instrs;
    sim_instrs = a.sim_instrs + b.sim_instrs;
    ops_out = a.ops_out + b.ops_out;
    detect_calls = a.detect_calls + b.detect_calls;
    target_cycles = a.target_cycles + b.target_cycles;
    findings = a.findings + b.findings;
  }

(* What a stage does per program, mirroring the workload's own path:
   [paper_report] detects every figure length and selects/simulates the
   ASIP; [corpus_verify] detects once and runs every verifier. *)
type plan = {
  queries : Pipeline.Query.t list;
  coverage_levels : Opt_level.t list;
  asip : bool;
  verify : bool;
}

let report_plan =
  {
    queries =
      List.concat_map
        (fun level ->
          List.map
            (fun length -> Pipeline.Query.make ~length ~min_freq:0.5 level)
            [ 2; 3; 4; 5 ])
        Opt_level.all;
    coverage_levels = [ Opt_level.O0; Opt_level.O1 ];
    asip = true;
    verify = false;
  }

let corpus_plan =
  {
    queries = [ Asipfb_corpus.Corpus.default_query ];
    coverage_levels = [];
    asip = false;
    verify = true;
  }

(* Fingerprint of one program's analysis, compared between the replay
   and the engine: the same profile counts and the same schedules. *)
let fingerprint (a : Pipeline.analysis) =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          (Marshal.to_string (Profile.to_alist a.profile) []
          :: List.map (fun (_, (s : Schedule.t)) -> Prog.to_string s.prog)
               a.scheds)))

let span = Trace.span

let program tr plan (b : Benchmark.t) =
  let prog = span tr "frontend.compile" (fun () -> Benchmark.compile b) in
  let inputs = b.inputs () in
  let outcome = span tr "sim.profile" (fun () -> Interp.run ~inputs prog) in
  let scheds =
    List.map
      (fun level ->
        ( level,
          span tr ("sched." ^ Opt_level.to_string level) (fun () ->
              Schedule.optimize ~level prog) ))
      Opt_level.all
  in
  let a =
    { Pipeline.benchmark = b; prog; profile = outcome.profile; outcome;
      scheds; verify = [] }
  in
  List.iter
    (fun q -> ignore (span tr "chain.detect" (fun () -> Pipeline.detect_report a q)))
    plan.queries;
  List.iter
    (fun level ->
      ignore
        (span tr "chain.coverage" (fun () ->
             Pipeline.coverage a (Pipeline.Query.make level))))
    plan.coverage_levels;
  let target_cycles =
    if not plan.asip then 0
    else
      let sched = Pipeline.sched a Opt_level.O1 in
      let config = { Select.default_config with uarch = Uarch.risc5 } in
      let choices, _ =
        span tr "asip.select" (fun () ->
            Select.choose_report config sched ~profile:a.profile)
      in
      let target =
        span tr "asip.codegen" (fun () ->
            Codegen.generate_for_choices ~choices prog)
      in
      let out =
        span tr "asip.tsim" (fun () -> Tsim.run ~uarch:Uarch.risc5 target ~inputs)
      in
      out.cycles
  in
  let findings =
    if not plan.verify then []
    else
      span tr "verify.lint" (fun () -> Verify.lint_source b.source)
      @ span tr "verify.ircheck" (fun () -> Verify.check_ir prog)
      @ List.concat_map
          (fun (_, s) ->
            span tr "verify.legality" (fun () ->
                Verify.check_schedule ~original:prog s))
          scheds
      @ List.concat_map
          (fun (_, s) ->
            span tr "verify.equiv" (fun () ->
                Verify.check_refinement ~original:prog s))
          scheds
  in
  ( fingerprint a,
    {
      tac_instrs = Prog.total_instrs prog;
      sim_instrs = outcome.instrs_executed;
      ops_out =
        List.fold_left
          (fun acc (_, (s : Schedule.t)) -> acc + Prog.total_instrs s.prog)
          0 scheds;
      detect_calls = List.length plan.queries;
      target_cycles;
      findings = List.length findings;
    } )

let layers =
  [ "frontend.compile"; "sim.profile"; "sched.O0"; "sched.O1"; "sched.O2";
    "chain.detect"; "chain.coverage"; "asip.select"; "asip.codegen";
    "asip.tsim"; "verify.lint"; "verify.ircheck"; "verify.legality";
    "verify.equiv" ]

let run tr plan benchmarks =
  Trace.span tr "replay" (fun () ->
      List.fold_left
        (fun (fps, acc) b ->
          let fp, c = program tr plan b in
          (fp :: fps, add acc c))
        ([], zero) benchmarks)
  |> fun (fps, c) -> (List.rev fps, c)

(* Two replay passes.  Layer times are the medians of the passes' span
   totals.  A pass fails its check unless it reproduces the engine's
   fingerprints and the first pass's counts exactly and satisfies
   [check].  Returns the per-layer rows and the number of failed
   passes. *)
let passes = 2

let traced tr plan benchmarks ~engine_fps ~check =
  let runs =
    List.init passes (fun _ ->
        let from = Measure.now () in
        let fps, counts = run tr plan benchmarks in
        (from, Measure.now (), fps, counts))
  in
  let _, _, _, c = List.hd runs in
  let failed =
    List.length
      (List.filter
         (fun (_, _, fps, counts) -> fps <> engine_fps || counts <> c || not (check counts))
         runs)
  in
  let per_pass name =
    Stats.median (List.map (fun (from, until, _, _) -> Trace.total ~from ~until tr name) runs)
  in
  let count name v = Measure.metric name "count" (float_of_int v) in
  ( List.map (fun l -> Measure.metric (l ^ "_s") "s" (per_pass l)) layers
    @ [
        count "frontend.tac_instrs" c.tac_instrs;
        count "sim.instrs" c.sim_instrs;
        Measure.metric "sim.instrs_per_s" "1/s"
          (float_of_int c.sim_instrs /. per_pass "sim.profile");
        count "sched.ops_out" c.ops_out;
        count "chain.detect_calls" c.detect_calls;
        count "asip.target_cycles" c.target_cycles;
        count "verify.findings" c.findings;
      ],
    failed )
