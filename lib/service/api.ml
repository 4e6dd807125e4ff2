(* The versioned wire API: total JSON encoders/decoders for every type
   that crosses the service boundary.  The same encoders back the
   offline CLI's --json output, so daemon and CLI share one schema. *)

module Pipeline = Asipfb.Pipeline
module Timing = Asipfb.Timing
module Opt_level = Asipfb_sched.Opt_level
module Detect = Asipfb_chain.Detect
module Coverage = Asipfb_chain.Coverage
module Diag = Asipfb_diag.Diag
module Engine = Asipfb_engine.Engine
module Cache = Asipfb_engine.Cache
module Supervise = Asipfb_supervise.Supervise
module Corpus = Asipfb_corpus.Corpus

let api_version = 1

(* v2 added the translation-validation surface: verify mode "tv" and the
   "equiv-verdict" payload.  v3 added the microarchitecture-aware timing
   surface: the "timing" op and the "timing-report" payload.  Decoders
   are lenient on schema_version, so v1/v2 frames (which can only carry
   the kinds of their era) still decode. *)
let schema_version = 3

type request =
  | Ping
  | Stats
  | Shutdown
  | Detect of { benchmark : string; query : Pipeline.Query.t }
  | Coverage of { benchmark : string; query : Pipeline.Query.t }
  | Verify of { benchmark : string; mode : [ `Ir | `Full | `Tv ] }
  | Lint of { benchmark : string option }
  | Corpus_sample of { seed : int; index : int; size : int option }
  | Timing of { benchmark : string; level : Opt_level.t; uarch : string;
                clock : float option }

let request_op = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | Detect _ -> "detect"
  | Coverage _ -> "coverage"
  | Verify _ -> "verify"
  | Lint _ -> "lint"
  | Corpus_sample _ -> "corpus-sample"
  | Timing _ -> "timing"

type cache_status = Hit | Join | Miss | Uncached

let cache_status_to_string = function
  | Hit -> "hit"
  | Join -> "join"
  | Miss -> "miss"
  | Uncached -> "none"

let cache_status_of_string = function
  | "hit" -> Some Hit
  | "join" -> Some Join
  | "miss" -> Some Miss
  | "none" -> Some Uncached
  | _ -> None

type service_stats = {
  requests : int;
  errors : int;
  memo_hits : int;
  coalesced : int;
  uptime_s : float;
}

type stats_payload = { engine : Engine.stats; service : service_stats }

type equiv_verdict = {
  ev_benchmark : string;
  ev_levels : int;
  ev_refinement_failures : int;
  ev_counterexamples : int;
  ev_findings : Diag.t list;
}

type payload =
  | Pong
  | Stopping
  | Detect_result of Detect.report
  | Coverage_result of Coverage.result
  | Findings of Diag.t list
  | Stats_result of stats_payload
  | Tv_result of equiv_verdict
  | Sample of { seed : int; index : int; size : int; name : string;
                source : string }
  | Timing_result of Timing.report

type response = {
  id : string;
  cache : cache_status;
  body : (payload, Diag.t) result;
}

(* --- protocol diagnostics ----------------------------------------------- *)

let protocol_error ?(context = []) message =
  Diag.make ~stage:Diag.Driver
    ~context:(("kind", "protocol-error") :: context)
    message

let unsupported_version offered =
  let offered_s =
    match offered with Some v -> string_of_int v | None -> "absent"
  in
  Diag.make ~stage:Diag.Driver
    ~context:
      [ ("kind", "unsupported-api-version"); ("api", offered_s);
        ("supported", string_of_int api_version) ]
    (Printf.sprintf
       "unsupported api version %s (this daemon speaks api %d)" offered_s
       api_version)

(* --- decode combinators -------------------------------------------------- *)

let ( let* ) = Result.bind

let as_obj = function
  | Json.Obj _ as j -> Ok j
  | _ -> Error "expected a JSON object"

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let opt_field name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some v

let int_field name j =
  let* v = field name j in
  match Json.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "field %S must be an integer" name)

let opt_int_field name j =
  match opt_field name j with
  | None -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> Error (Printf.sprintf "field %S must be an integer or null" name))

let float_field name j =
  let* v = field name j in
  match Json.to_float v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "field %S must be a number" name)

let str_field name j =
  let* v = field name j in
  match Json.to_str v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S must be a string" name)

let list_field name j =
  let* v = field name j in
  match Json.to_list v with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "field %S must be an array" name)

let map_result f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* y = f x in
        go (y :: acc) rest
  in
  go [] l

let str_list_field name j =
  let* l = list_field name j in
  map_result
    (fun v ->
      match Json.to_str v with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "field %S must hold strings" name))
    l

let check_kind expected j =
  let* k = str_field "kind" j in
  if k = expected then Ok ()
  else Error (Printf.sprintf "expected kind %S, found %S" expected k)

(* Every encoded top-level object leads with its kind and the schema
   version — the one header shared by wire payloads and offline --json. *)
let header kind = [ ("kind", Json.String kind); ("schema_version", Json.Int schema_version) ]

(* --- query --------------------------------------------------------------- *)

let query_to_json (q : Pipeline.Query.t) =
  Json.Obj
    [
      ("level", Json.Int (Opt_level.to_int q.level));
      ("length", Json.Int q.length);
      ( "min_freq",
        match q.min_freq with Some f -> Json.Float f | None -> Json.Null );
      ( "budget",
        match q.budget with Some b -> Json.Int b | None -> Json.Null );
    ]

let level_of_json v =
  let found =
    match v with
    | Json.Int i -> Opt_level.of_int i
    | Json.String s -> Opt_level.of_string s
    | _ -> None
  in
  match found with
  | Some l -> Ok l
  | None -> Error "field \"level\" must be an optimization level (0, 1, or 2)"

let query_of_json j =
  let* j = as_obj j in
  let* level = Result.bind (field "level" j) level_of_json in
  let* length = int_field "length" j in
  let* min_freq =
    match opt_field "min_freq" j with
    | None -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some f -> Ok (Some f)
        | None -> Error "field \"min_freq\" must be a number or null")
  in
  let* budget = opt_int_field "budget" j in
  Ok { Pipeline.Query.level; length; min_freq; budget }

(* --- diagnostics --------------------------------------------------------- *)

let severities =
  [ (Diag.Info, "info"); (Diag.Warning, "warning"); (Diag.Error, "error") ]

let stages =
  List.map
    (fun s -> (s, Diag.stage_to_string s))
    [ Diag.Frontend; Diag.Simulation; Diag.Scheduling; Diag.Detection;
      Diag.Coverage; Diag.Verification; Diag.Selection; Diag.Reporting;
      Diag.Driver ]

let rev_lookup table name err =
  match List.find_opt (fun (_, s) -> s = name) table with
  | Some (v, _) -> Ok v
  | None -> Error (Printf.sprintf "%s %S" err name)

(* The one diagnostic encoder: --diag-json reports, lint --json and the
   daemon all render diagnostics through this object. *)
let diag_to_json (d : Diag.t) =
  Json.Obj
    ([ ("severity", Json.String (Diag.severity_to_string d.severity));
       ("stage", Json.String (Diag.stage_to_string d.stage)) ]
    @ (match d.file with
      | Some f -> [ ("file", Json.String f) ]
      | None -> [])
    @ (match d.pos with
      | Some p -> [ ("line", Json.Int p.line); ("col", Json.Int p.col) ]
      | None -> [])
    @ [ ("message", Json.String d.message) ]
    @
    match d.context with
    | [] -> []
    | kvs ->
        [ ( "context",
            Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs) ) ])

let diag_of_json j =
  let* j = as_obj j in
  let* severity =
    Result.bind (str_field "severity" j) (fun s ->
        rev_lookup severities s "unknown severity")
  in
  let* stage =
    Result.bind (str_field "stage" j) (fun s ->
        rev_lookup stages s "unknown stage")
  in
  let file = Option.bind (opt_field "file" j) Json.to_str in
  let* pos =
    match (opt_field "line" j, opt_field "col" j) with
    | None, None -> Ok None
    | Some l, Some c -> (
        match (Json.to_int l, Json.to_int c) with
        | Some line, Some col -> Ok (Some { Diag.line; col })
        | _ -> Error "fields \"line\"/\"col\" must be integers")
    | _ -> Error "fields \"line\" and \"col\" must appear together"
  in
  let* message = str_field "message" j in
  let* context =
    match opt_field "context" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
        map_result
          (fun (k, v) ->
            match Json.to_str v with
            | Some s -> Ok (k, s)
            | None -> Error "field \"context\" must hold string values")
          kvs
    | Some _ -> Error "field \"context\" must be an object"
  in
  Ok { Diag.severity; stage; file; pos; message; context }

(* --- detection ----------------------------------------------------------- *)

let completeness_to_string = function
  | Detect.Exact -> "exact"
  | Detect.Budget_truncated -> "budget-truncated"

let completeness_of_string = function
  | "exact" -> Ok Detect.Exact
  | "budget-truncated" -> Ok Detect.Budget_truncated
  | s -> Error (Printf.sprintf "unknown completeness %S" s)

let occurrence_to_json (o : Detect.occurrence) =
  Json.Obj
    [
      ( "opids",
        Json.List
          (List.map
             (fun (opid, iter) -> Json.List [ Json.Int opid; Json.Int iter ])
             o.opids) );
      ("count", Json.Int o.count);
    ]

let occurrence_of_json j =
  let* opids =
    Result.bind (list_field "opids" j)
      (map_result (fun v ->
           match v with
           | Json.List [ a; b ] -> (
               match (Json.to_int a, Json.to_int b) with
               | Some opid, Some iter -> Ok (opid, iter)
               | _ -> Error "field \"opids\" must hold [opid, iter] pairs")
           | _ -> Error "field \"opids\" must hold [opid, iter] pairs"))
  in
  let* count = int_field "count" j in
  Ok { Detect.opids; count }

let detected_to_json (d : Detect.detected) =
  Json.Obj
    [
      ("name", Json.String (Detect.display_name d));
      ("classes", Json.List (List.map (fun c -> Json.String c) d.classes));
      ("freq", Json.Float d.freq);
      ("occurrences", Json.List (List.map occurrence_to_json d.occurrences));
    ]

let detected_of_json j =
  let* j = as_obj j in
  let* classes = str_list_field "classes" j in
  let* freq = float_field "freq" j in
  let* occurrences =
    Result.bind (list_field "occurrences" j) (map_result occurrence_of_json)
  in
  Ok { Detect.classes; freq; occurrences }

let detect_report_to_json (r : Detect.report) =
  Json.Obj
    (header "detect-report"
    @ [
        ("completeness", Json.String (completeness_to_string r.completeness));
        ("detections", Json.List (List.map detected_to_json r.detections));
      ])

let detect_report_of_json j =
  let* j = as_obj j in
  let* () = check_kind "detect-report" j in
  let* completeness =
    Result.bind (str_field "completeness" j) completeness_of_string
  in
  let* detections =
    Result.bind (list_field "detections" j) (map_result detected_of_json)
  in
  Ok { Detect.detections; completeness }

(* --- coverage ------------------------------------------------------------ *)

let pick_to_json (p : Coverage.pick) =
  Json.Obj
    [
      ("name", Json.String (Asipfb_chain.Chainop.sequence_name p.pick_classes));
      ( "classes",
        Json.List (List.map (fun c -> Json.String c) p.pick_classes) );
      ("freq", Json.Float p.pick_freq);
    ]

let pick_of_json j =
  let* j = as_obj j in
  let* pick_classes = str_list_field "classes" j in
  let* pick_freq = float_field "freq" j in
  Ok { Coverage.pick_classes; pick_freq }

let coverage_to_json (r : Coverage.result) =
  Json.Obj
    (header "coverage"
    @ [
        ("completeness", Json.String (completeness_to_string r.completeness));
        ("coverage", Json.Float r.coverage);
        ("picks", Json.List (List.map pick_to_json r.picks));
      ])

let coverage_of_json j =
  let* j = as_obj j in
  let* () = check_kind "coverage" j in
  let* completeness =
    Result.bind (str_field "completeness" j) completeness_of_string
  in
  let* coverage = float_field "coverage" j in
  let* picks = Result.bind (list_field "picks" j) (map_result pick_of_json) in
  Ok { Coverage.picks; coverage; completeness }

(* --- verifier findings --------------------------------------------------- *)

let findings_to_json findings =
  Json.Obj
    (header "findings"
    @ [ ("findings", Json.List (List.map diag_to_json findings)) ])

let findings_of_json j =
  let* j = as_obj j in
  let* () = check_kind "findings" j in
  Result.bind (list_field "findings" j) (map_result diag_of_json)

(* --- translation-validation verdict --------------------------------------- *)

let equiv_verdict_to_json (v : equiv_verdict) =
  Json.Obj
    (header "equiv-verdict"
    @ [
        ("benchmark", Json.String v.ev_benchmark);
        ("levels", Json.Int v.ev_levels);
        ("refinement_failures", Json.Int v.ev_refinement_failures);
        ("counterexamples", Json.Int v.ev_counterexamples);
        ("findings", Json.List (List.map diag_to_json v.ev_findings));
      ])

let equiv_verdict_of_json j =
  let* j = as_obj j in
  let* () = check_kind "equiv-verdict" j in
  let* ev_benchmark = str_field "benchmark" j in
  let* ev_levels = int_field "levels" j in
  let* ev_refinement_failures = int_field "refinement_failures" j in
  let* ev_counterexamples = int_field "counterexamples" j in
  let* ev_findings =
    Result.bind (list_field "findings" j) (map_result diag_of_json)
  in
  Ok { ev_benchmark; ev_levels; ev_refinement_failures; ev_counterexamples;
       ev_findings }

(* --- microarchitecture timing report -------------------------------------- *)

let chain_report_to_json (c : Timing.chain_report) =
  Json.Obj
    [
      ("mnemonic", Json.String c.cr_mnemonic);
      ("classes", Json.List (List.map (fun s -> Json.String s) c.cr_classes));
      ("delay", Json.Float c.cr_delay);
      ("slack", Json.Float c.cr_slack);
      ("cycles", Json.Int c.cr_cycles);
      ("latency_sum", Json.Int c.cr_latency_sum);
    ]

let chain_report_of_json j =
  let* j = as_obj j in
  let* cr_mnemonic = str_field "mnemonic" j in
  let* cr_classes = str_list_field "classes" j in
  let* cr_delay = float_field "delay" j in
  let* cr_slack = float_field "slack" j in
  let* cr_cycles = int_field "cycles" j in
  let* cr_latency_sum = int_field "latency_sum" j in
  Ok { Timing.cr_mnemonic; cr_classes; cr_delay; cr_slack; cr_cycles;
       cr_latency_sum }

let timing_report_to_json (r : Timing.report) =
  Json.Obj
    (header "timing-report"
    @ [
        ("benchmark", Json.String r.t_benchmark);
        ("level", Json.Int (Opt_level.to_int r.t_level));
        ("uarch", Json.String r.t_uarch);
        ("clock", Json.Float r.t_clock);
        ("baseline_cycles", Json.Int r.t_baseline_cycles);
        ("asip_cycles", Json.Int r.t_asip_cycles);
        ("estimated_speedup", Json.Float r.t_estimated_speedup);
        ("measured_cycles", Json.Int r.t_measured_cycles);
        ("measured_speedup", Json.Float r.t_measured_speedup);
        ("total_area", Json.Float r.t_total_area);
        ("chains", Json.List (List.map chain_report_to_json r.t_chains));
        ("rejected", Json.List (List.map diag_to_json r.t_rejected));
      ])

let timing_report_of_json j =
  let* j = as_obj j in
  let* () = check_kind "timing-report" j in
  let* t_benchmark = str_field "benchmark" j in
  let* t_level = Result.bind (field "level" j) level_of_json in
  let* t_uarch = str_field "uarch" j in
  let* t_clock = float_field "clock" j in
  let* t_baseline_cycles = int_field "baseline_cycles" j in
  let* t_asip_cycles = int_field "asip_cycles" j in
  let* t_estimated_speedup = float_field "estimated_speedup" j in
  let* t_measured_cycles = int_field "measured_cycles" j in
  let* t_measured_speedup = float_field "measured_speedup" j in
  let* t_total_area = float_field "total_area" j in
  let* t_chains =
    Result.bind (list_field "chains" j) (map_result chain_report_of_json)
  in
  let* t_rejected =
    Result.bind (list_field "rejected" j) (map_result diag_of_json)
  in
  Ok { Timing.t_benchmark; t_level; t_uarch; t_clock; t_baseline_cycles;
       t_asip_cycles; t_estimated_speedup; t_measured_cycles;
       t_measured_speedup; t_total_area; t_chains; t_rejected }

(* --- engine + service statistics ----------------------------------------- *)

let cache_stats_to_json (s : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.hits);
      ("disk_hits", Json.Int s.disk_hits);
      ("misses", Json.Int s.misses);
      ("stores", Json.Int s.stores);
      ("corrupt", Json.Int s.corrupt);
      ("io_errors", Json.Int s.io_errors);
    ]

let cache_stats_of_json name j =
  let* j =
    Result.map_error (fun e -> Printf.sprintf "%s: %s" name e) (as_obj j)
  in
  let get f = Result.map_error (fun e -> Printf.sprintf "%s: %s" name e) f in
  let* hits = get (int_field "hits" j) in
  let* disk_hits = get (int_field "disk_hits" j) in
  let* misses = get (int_field "misses" j) in
  let* stores = get (int_field "stores" j) in
  let* corrupt = get (int_field "corrupt" j) in
  let* io_errors = get (int_field "io_errors" j) in
  Ok { Cache.hits; disk_hits; misses; stores; corrupt; io_errors }

let supervise_stats_to_json (s : Supervise.stats) =
  Json.Obj
    [
      ("tasks", Json.Int s.tasks);
      ("attempts", Json.Int s.attempts);
      ("retries", Json.Int s.retries);
      ("failures", Json.Int s.failures);
      ("timeouts", Json.Int s.timeouts);
      ("quarantined", Json.Int s.quarantined);
      ("degraded", Json.Int s.degraded);
    ]

let supervise_stats_of_json j =
  let* j = as_obj j in
  let* tasks = int_field "tasks" j in
  let* attempts = int_field "attempts" j in
  let* retries = int_field "retries" j in
  let* failures = int_field "failures" j in
  let* timeouts = int_field "timeouts" j in
  let* quarantined = int_field "quarantined" j in
  let* degraded = int_field "degraded" j in
  Ok
    { Supervise.tasks; attempts; retries; failures; timeouts; quarantined;
      degraded }

let engine_stats_to_json (s : Engine.stats) =
  Json.Obj
    [
      ("schema", Json.String Engine.schema_revision);
      ("base", cache_stats_to_json s.base);
      ("sched", cache_stats_to_json s.sched);
      ("verify", cache_stats_to_json s.verify);
      ("supervise", supervise_stats_to_json s.supervise);
    ]

let engine_stats_of_json j =
  let* j = as_obj j in
  let* base = Result.bind (field "base" j) (cache_stats_of_json "base") in
  let* sched = Result.bind (field "sched" j) (cache_stats_of_json "sched") in
  let* verify =
    Result.bind (field "verify" j) (cache_stats_of_json "verify")
  in
  let* supervise = Result.bind (field "supervise" j) supervise_stats_of_json in
  Ok { Engine.base; sched; verify; supervise }

let stats_to_json (p : stats_payload) =
  Json.Obj
    (header "stats"
    @ [
        ("engine", engine_stats_to_json p.engine);
        ( "service",
          Json.Obj
            [
              ("requests", Json.Int p.service.requests);
              ("errors", Json.Int p.service.errors);
              ("memo_hits", Json.Int p.service.memo_hits);
              ("coalesced", Json.Int p.service.coalesced);
              ("uptime_s", Json.Float p.service.uptime_s);
            ] );
      ])

let stats_of_json j =
  let* j = as_obj j in
  let* () = check_kind "stats" j in
  let* engine = Result.bind (field "engine" j) engine_stats_of_json in
  let* svc = field "service" j in
  let* requests = int_field "requests" svc in
  let* errors = int_field "errors" svc in
  let* memo_hits = int_field "memo_hits" svc in
  let* coalesced = int_field "coalesced" svc in
  let* uptime_s = float_field "uptime_s" svc in
  Ok
    { engine;
      service = { requests; errors; memo_hits; coalesced; uptime_s } }

(* --- offline-only envelopes ---------------------------------------------- *)

let diag_report_to_json diags =
  Json.Obj
    (header "diagnostics"
    @ [ ("diagnostics", Json.List (List.map diag_to_json diags)) ])

let corpus_summary_to_json (sp : Corpus.spec) (s : Corpus.summary) =
  Json.Obj
    (header "corpus-summary"
    @ [
        ("seed", Json.Int sp.seed);
        ("count", Json.Int sp.count);
        ("size", Json.Int sp.size);
        ("total", Json.Int s.total);
        ("ok", Json.Int s.ok);
        ("crashed", Json.Int s.crashed);
        ("timeouts", Json.Int s.timeouts);
        ("quarantined", Json.Int s.quarantined);
        ("dynamic_ops", Json.Int s.dynamic_ops);
        ("verify_findings", Json.Int s.verify_findings);
        ( "chains",
          Json.List
            (List.map
               (fun (name, share) ->
                 Json.Obj
                   [ ("name", Json.String name); ("share", Json.Float share) ])
               s.chains) );
      ])

(* --- request frames ------------------------------------------------------ *)

let mode_to_string = function `Ir -> "ir" | `Full -> "full" | `Tv -> "tv"

let mode_of_string = function
  | "ir" -> Ok `Ir
  | "full" -> Ok `Full
  | "tv" -> Ok `Tv
  | s ->
      Error
        (Printf.sprintf "unknown verify mode %S (expected ir, full, or tv)" s)

let encode_request ?(id = "") req =
  let head =
    [
      ("api", Json.Int api_version);
      ("id", Json.String id);
      ("op", Json.String (request_op req));
    ]
  in
  let rest =
    match req with
    | Ping | Stats | Shutdown -> []
    | Detect { benchmark; query } | Coverage { benchmark; query } ->
        [ ("benchmark", Json.String benchmark);
          ("query", query_to_json query) ]
    | Verify { benchmark; mode } ->
        [ ("benchmark", Json.String benchmark);
          ("mode", Json.String (mode_to_string mode)) ]
    | Lint { benchmark } ->
        [ ( "benchmark",
            match benchmark with Some b -> Json.String b | None -> Json.Null )
        ]
    | Corpus_sample { seed; index; size } ->
        [ ("seed", Json.Int seed); ("index", Json.Int index);
          ( "size",
            match size with Some s -> Json.Int s | None -> Json.Null ) ]
    | Timing { benchmark; level; uarch; clock } ->
        [ ("benchmark", Json.String benchmark);
          ("level", Json.Int (Opt_level.to_int level));
          ("uarch", Json.String uarch);
          ( "clock",
            match clock with Some c -> Json.Float c | None -> Json.Null ) ]
  in
  Json.to_string (Json.Obj (head @ rest))

let decode_request line =
  match Json.of_string line with
  | Error e -> Error (protocol_error ("malformed frame: " ^ e))
  | Ok j -> (
      match j with
      | Json.Obj _ -> (
          match Json.member "api" j with
          | None -> Error (unsupported_version None)
          | Some v -> (
              match Json.to_int v with
              | None -> Error (unsupported_version None)
              | Some v when v <> api_version ->
                  Error (unsupported_version (Some v))
              | Some _ -> (
                  let id =
                    Option.value ~default:""
                      (Option.bind (Json.member "id" j) Json.to_str)
                  in
                  match Option.bind (Json.member "op" j) Json.to_str with
                  | None ->
                      Error
                        (protocol_error "missing or non-string field \"op\"")
                  | Some op -> (
                      let fail e =
                        Error
                          (protocol_error ~context:[ ("op", op) ]
                             (Printf.sprintf "invalid %S request: %s" op e))
                      in
                      let benchmark_query mk =
                        match
                          let* benchmark = str_field "benchmark" j in
                          let* query =
                            Result.bind (field "query" j) query_of_json
                          in
                          Ok (mk benchmark query)
                        with
                        | Ok req -> Ok (id, req)
                        | Error e -> fail e
                      in
                      match op with
                      | "ping" -> Ok (id, Ping)
                      | "stats" -> Ok (id, Stats)
                      | "shutdown" -> Ok (id, Shutdown)
                      | "detect" ->
                          benchmark_query (fun benchmark query ->
                              Detect { benchmark; query })
                      | "coverage" ->
                          benchmark_query (fun benchmark query ->
                              Coverage { benchmark; query })
                      | "verify" -> (
                          match
                            let* benchmark = str_field "benchmark" j in
                            let* mode =
                              Result.bind (str_field "mode" j) mode_of_string
                            in
                            Ok (Verify { benchmark; mode })
                          with
                          | Ok req -> Ok (id, req)
                          | Error e -> fail e)
                      | "lint" -> (
                          match opt_field "benchmark" j with
                          | None -> Ok (id, Lint { benchmark = None })
                          | Some v -> (
                              match Json.to_str v with
                              | Some b ->
                                  Ok (id, Lint { benchmark = Some b })
                              | None ->
                                  fail
                                    "field \"benchmark\" must be a string \
                                     or null"))
                      | "corpus-sample" -> (
                          match
                            let* seed = int_field "seed" j in
                            let* index = int_field "index" j in
                            let* size = opt_int_field "size" j in
                            Ok (Corpus_sample { seed; index; size })
                          with
                          | Ok req -> Ok (id, req)
                          | Error e -> fail e)
                      | "timing" -> (
                          match
                            let* benchmark = str_field "benchmark" j in
                            let* level =
                              Result.bind (field "level" j) level_of_json
                            in
                            let* uarch = str_field "uarch" j in
                            let* clock =
                              match opt_field "clock" j with
                              | None -> Ok None
                              | Some v -> (
                                  match Json.to_float v with
                                  | Some c -> Ok (Some c)
                                  | None ->
                                      Error
                                        "field \"clock\" must be a number \
                                         or null")
                            in
                            Ok (Timing { benchmark; level; uarch; clock })
                          with
                          | Ok req -> Ok (id, req)
                          | Error e -> fail e)
                      | op ->
                          Error
                            (protocol_error ~context:[ ("op", op) ]
                               (Printf.sprintf
                                  "unknown op %S (known: ping, stats, \
                                   shutdown, detect, coverage, verify, \
                                   lint, corpus-sample, timing)"
                                  op))))))
      | _ -> Error (protocol_error "frame must be a JSON object"))

(* --- response frames ----------------------------------------------------- *)

let payload_to_json = function
  | Pong -> Json.Obj (header "pong")
  | Stopping -> Json.Obj (header "stopping")
  | Detect_result r -> detect_report_to_json r
  | Coverage_result r -> coverage_to_json r
  | Findings ds -> findings_to_json ds
  | Stats_result p -> stats_to_json p
  | Tv_result v -> equiv_verdict_to_json v
  | Sample { seed; index; size; name; source } ->
      Json.Obj
        (header "corpus-sample"
        @ [
            ("seed", Json.Int seed);
            ("index", Json.Int index);
            ("size", Json.Int size);
            ("name", Json.String name);
            ("source", Json.String source);
          ])
  | Timing_result r -> timing_report_to_json r

let payload_of_json j =
  let* j = as_obj j in
  let* kind = str_field "kind" j in
  match kind with
  | "pong" -> Ok Pong
  | "stopping" -> Ok Stopping
  | "detect-report" -> Result.map (fun r -> Detect_result r) (detect_report_of_json j)
  | "coverage" -> Result.map (fun r -> Coverage_result r) (coverage_of_json j)
  | "findings" -> Result.map (fun ds -> Findings ds) (findings_of_json j)
  | "stats" -> Result.map (fun p -> Stats_result p) (stats_of_json j)
  | "equiv-verdict" ->
      Result.map (fun v -> Tv_result v) (equiv_verdict_of_json j)
  | "corpus-sample" ->
      let* seed = int_field "seed" j in
      let* index = int_field "index" j in
      let* size = int_field "size" j in
      let* name = str_field "name" j in
      let* source = str_field "source" j in
      Ok (Sample { seed; index; size; name; source })
  | "timing-report" ->
      Result.map (fun r -> Timing_result r) (timing_report_of_json j)
  | kind -> Error (Printf.sprintf "unknown result kind %S" kind)

let encode_response (r : response) =
  let head =
    [
      ("api", Json.Int api_version);
      ("id", Json.String r.id);
      ("ok", Json.Bool (Result.is_ok r.body));
      ("cache", Json.String (cache_status_to_string r.cache));
    ]
  in
  let body =
    match r.body with
    | Ok payload -> [ ("result", payload_to_json payload) ]
    | Error diag -> [ ("error", diag_to_json diag) ]
  in
  Json.to_string (Json.Obj (head @ body))

let decode_response line =
  let* j = Result.map_error (fun e -> "malformed frame: " ^ e) (Json.of_string line) in
  let* j = as_obj j in
  let* api = int_field "api" j in
  let* () =
    if api = api_version then Ok ()
    else Error (Printf.sprintf "unsupported api version %d" api)
  in
  let id =
    Option.value ~default:"" (Option.bind (Json.member "id" j) Json.to_str)
  in
  let* ok = Result.bind (field "ok" j) (fun v ->
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error "field \"ok\" must be a boolean")
  in
  let* cache =
    Result.bind (str_field "cache" j) (fun s ->
        match cache_status_of_string s with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown cache status %S" s))
  in
  if ok then
    let* payload = Result.bind (field "result" j) payload_of_json in
    Ok { id; cache; body = Ok payload }
  else
    let* diag = Result.bind (field "error" j) diag_of_json in
    Ok { id; cache; body = Error diag }
