(* corpus_verify: a closed loop over many tiny programs.  Each pass runs
   Corpus.run with translation validation (`Tv) over a population drawn
   from the seed, on a fresh uncached engine, so frontend, scheduling,
   verification and per-task engine overhead dominate and the simulator
   does almost nothing: the contrast to paper_report. *)

open Measure
module Corpus = Asipfb_corpus.Corpus
module Engine = Asipfb_engine.Engine
module Pipeline = Asipfb.Pipeline

let count = 128
let size = Asipfb_corpus.Gen.default_size
let reference_file = "perfbench/ref/corpus_verify.tsv"

(* One summary as a reference line: seed, count, size, ok count, dynamic
   ops, verifier findings, and a digest of the exact chain histogram. *)
let summary_line seed (s : Corpus.summary) =
  let chains =
    String.concat ";"
      (List.map (fun (name, pct) -> Printf.sprintf "%s=%h" name pct) s.chains)
  in
  Printf.sprintf "%d\t%d\t%d\t%d\t%d\t%d\t%s" seed count size s.ok
    s.dynamic_ops s.verify_findings (Digest.to_hex (Digest.string chains))

let pass ?on_result benchmarks =
  let engine = Engine.create ~cache:false () in
  (engine, Corpus.run ~engine ~verify:`Tv ?on_result benchmarks)

(* The population: [count] programs drawn from the seed's corpus by
   stratified sampling.  Program cost is heavy-tailed in program size, so
   the first [count] programs of one seed can cost a fifth more than
   another seed's.  Instead, [strata * count] candidates are ordered by
   source length and one program is drawn from each run of [strata]
   consecutive candidates: every seed gets the same size profile, and the
   seed still picks the programs. *)
let strata = 4

let population seed =
  let candidates =
    Corpus.benchmarks (Corpus.spec ~size ~seed ~count:(strata * count) ())
    |> List.mapi (fun i (b : Asipfb_bench_suite.Benchmark.t) -> (String.length b.source, i, b))
    |> List.sort compare |> Array.of_list
  in
  let prng = Asipfb_util.Prng.create ~seed in
  List.init count (fun k -> candidates.((k * strata) + Asipfb_util.Prng.next_int prng ~bound:strata))
  |> List.sort (fun (_, i, _) (_, j, _) -> Int.compare i j)
  |> List.map (fun (_, _, b) -> b)

let reference_line seed = summary_line seed (snd (pass (population seed)))

(* The committed line for [seed], if the reference file has one. *)
let committed seed =
  let prefix = Printf.sprintf "%d\t%d\t%d\t" seed count size in
  if not (Sys.file_exists reference_file) then None
  else
    In_channel.with_open_text reference_file (fun ic ->
        List.find_opt (String.starts_with ~prefix) (In_channel.input_lines ic))

let run ~seed ~seconds ~trace_file =
  (* Set-up: draw the population and run the first (cold) pass, keeping
     its analyses for the replay check and the speedup metric. *)
  let setup_s, (benchmarks, analyses, cold) =
    median_setup (fun () ->
        let benchmarks = population seed in
        let analyses = ref [] in
        let on_result (o : Corpus.outcome) =
          match o.result with
          | Ok (a, _) -> analyses := a :: !analyses
          | Error _ -> ()
        in
        let _, summary = pass ~on_result benchmarks in
        (benchmarks, List.rev !analyses, summary))
  in
  let expected =
    match committed seed with
    | Some line -> line
    | None ->
        (* No committed line for this seed: the sequential one-domain
           engine is the reference, since summaries must not depend on
           the job count. *)
        prerr_endline
          "perfbench: no committed corpus reference for this seed; checking \
           against a sequential run";
        let engine = Engine.sequential () in
        summary_line seed (Corpus.run ~engine ~verify:`Tv benchmarks)
  in
  let check s = String.equal (summary_line seed s) expected in
  let timed tr seconds =
    repeat_for ~seconds (fun () -> Trace.span tr "corpus.pass" (fun () -> pass benchmarks))
  in
  let failures samples =
    List.length (List.filter (fun (_, (_, s)) -> not (check s)) samples)
  in
  if Option.is_none trace_file then begin
    let samples = timed (Trace.create ~enabled:false) seconds in
    let secs = List.map fst samples in
    let p50, tail = latency_pair ~what:"corpus pass" (List.map ms secs) in
    {
      attempted = 1 + List.length samples;
      failed = failures samples + (if check cold then 0 else 1);
      metrics =
        [
          metric "setup_s" "s" setup_s;
          metric "peak_rss_mb" "MB" (self_peak_rss_mb ());
          metric "latency_p50_ms" "ms" p50;
          metric "latency_tail_ms" "ms" tail;
          metric "throughput_per_s" "1/s"
            (float_of_int (count * List.length secs) /. List.fold_left ( +. ) 0. secs);
          metric "asip_speedup" "x" (asip_speedup (timing_reports analyses));
        ];
    }
  end
  else begin
    let plain = timed (Trace.create ~enabled:false) (seconds /. 2.) in
    let tr = Trace.create ~enabled:true in
    let from = now () in
    let traced, minor, majors =
      gc_window (fun () ->
          Trace.span tr "corpus_verify" (fun () -> timed tr (seconds /. 2.)))
    in
    let layers, replay_failures =
      Replay.traced tr Replay.corpus_plan benchmarks
        ~engine_fps:(List.map Replay.fingerprint analyses)
        ~check:(fun c -> c.findings = cold.verify_findings)
    in
    let until = now () in
    let failed =
      failures plain + failures traced + replay_failures + if check cold then 0 else 1
    in
    let attempted = 1 + List.length plain + List.length traced + Replay.passes in
    let engine, _ = snd (List.nth traced (List.length traced - 1)) in
    let median_s xs = Stats.median (List.map fst xs) in
    Option.iter (Trace.write_chrome tr) trace_file;
    {
      attempted;
      failed;
      metrics =
        engine_metrics (Engine.stats engine)
        @ trace_metrics ~minor ~majors ~ops:(List.length traced)
            ~coverage:(Trace.coverage tr ~from ~until)
            ~overhead_s:(median_s traced -. median_s plain)
            ~failed ~attempted
        @ layers;
    }
  end
