(* The repository benchmark: one named workload at a given seed, printing
   one JSON result line.  See README.md for the workloads and metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --corpus-ref FROM TO   (reference lines for seeds FROM..TO) *)

open Perfbench

let end_to_end =
  [ "setup_s"; "peak_rss_mb"; "latency_p50_ms"; "latency_tail_ms";
    "throughput_per_s"; "asip_speedup" ]

(* Every per-layer row, with its unit.  A workload that does not reach a
   layer reports it as 0. *)
let per_layer =
  List.map
    (fun (name, _) -> ("core.artifact." ^ name ^ "_s", "s"))
    Paper_report.artifacts
  @ [ ("engine.run_suite_s", "s"); ("engine.cache_misses", "count") ]
  @ List.map (fun l -> (l ^ "_s", "s")) Replay.layers
  @ [
      ("frontend.tac_instrs", "count"); ("sim.instrs", "count");
      ("sim.instrs_per_s", "1/s"); ("sched.ops_out", "count");
      ("chain.detect_calls", "count"); ("asip.target_cycles", "count");
      ("verify.findings", "count"); ("supervise.retries", "count");
      ("supervise.quarantined", "count"); ("service.decode_s", "s");
      ("service.encode_s", "s"); ("service.handle_hit_s", "s");
      ("service.handle_miss_s", "s"); ("service.memo_hits", "count");
      ("service.coalesced", "count"); ("daemon.queue_ms", "ms");
      ("daemon.gen_lag_ms", "ms"); ("gc.minor_words", "words");
      ("gc.major_collections", "count"); ("trace.coverage", "ratio");
      ("trace.overhead_s", "s"); ("error_ratio", "ratio");
    ]

(* Shortest decimal that reads back as the same float. *)
let number f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let print_result ~correct ~attempted ~failed metrics =
  let field (name, unit_, v) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit_
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed
    (String.concat "," (List.map field metrics))

let select ~traced (r : Measure.result) =
  let find name = List.find_opt (fun (m : Measure.metric) -> m.name = name) r.metrics in
  if traced then
    List.map
      (fun (name, unit_) ->
        (name, unit_, match find name with Some m -> m.value | None -> 0.))
      per_layer
  else
    List.map
      (fun name ->
        match find name with
        | Some m -> (name, m.unit_, m.value)
        | None -> failwith ("perfbench: workload did not measure " ^ name))
      end_to_end

let usage () =
  prerr_endline
    "usage: main.exe --workload paper_report|corpus_verify|daemon_mixed \
     --seed N --seconds S --trace 0|1\n\
    \       main.exe --corpus-ref FROM TO";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        parse ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  match args with
  | [ "--corpus-ref"; from; until ] ->
      for seed = int_of_string from to int_of_string until do
        print_endline (Corpus_verify.reference_line seed)
      done
  | _ ->
      let opts = parse [] args in
      let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
      let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
      let workload = get "--workload" and seed = int "--seed" in
      let seconds = float_of_int (int "--seconds") in
      let traced =
        match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      (* Built by run.sh next to the harness. *)
      let asipfb = "_build/default/bin/asipfb_cli.exe" in
      if not (Sys.file_exists Measure.out_dir) then Sys.mkdir Measure.out_dir 0o755;
      let trace_file =
        if traced then
          Some (Printf.sprintf "%s/%s-%d.trace.json" Measure.out_dir workload seed)
        else None
      in
      let run =
        match workload with
        | "paper_report" -> fun () -> Paper_report.run ~asipfb ~seconds ~trace_file
        | "corpus_verify" -> fun () -> Corpus_verify.run ~seed ~seconds ~trace_file
        | "daemon_mixed" -> fun () -> Daemon_mixed.run ~asipfb ~seed ~seconds ~trace_file
        | _ -> usage ()
      in
      let r = run () in
      Option.iter (Printf.eprintf "perfbench: trace written to %s\n%!") trace_file;
      print_result ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
        (select ~traced r);
      if r.failed > 0 then exit 1
