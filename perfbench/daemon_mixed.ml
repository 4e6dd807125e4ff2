(* daemon_mixed: an open loop at fixed rates against `asipfb serve`
   running as a child process, so the generator's GC never stops the
   server's domains.  Two pipelined connections (nproc on the reference
   host), one for reads and one for writes: the daemon answers each
   connection in order, so lookups on their own connection never queue
   behind an analysis.  Each request is timed from the moment it was due.

   Most requests are reads: detect/coverage/timing/verify over the 12
   suite benchmarks, answered from the daemon's memo once warm.  Every
   [write_every]-th request is a write: a timing request with a clock
   never asked before, so the daemon runs a real Timing.of_analysis and
   adds a memo entry. *)

open Measure
module Api = Asipfb_service.Api
module Server = Asipfb_service.Server
module Client = Asipfb_service.Client
module Engine = Asipfb_engine.Engine
module Registry = Asipfb_bench_suite.Registry
module Opt_level = Asipfb_sched.Opt_level
module Prng = Asipfb_util.Prng

let connections = 2
let base_rate = 2000.
let write_every = 200

(* Latency limit on the tail percentile, well above the slowest single
   write (compress, about 80 ms).  Near capacity a short stall of the
   host turns into a long drain, and the tail (p99.9 or higher) sees
   every stall, so a tighter limit makes the measured rate follow
   chance stalls rather than the daemon. *)
let limit_ms = 500.

(* The fixed-rate search: double from the base rate up to [base * 16],
   then four geometric bisections (about 4% resolution). *)
let grow = 2.
let ceiling = base_rate *. 16.
let search_steps = 4
let max_probes = 4 + search_steps

(* Share of the run spent at the base rate; the search gets the rest. *)
let base_share = 0.35

let reads : Api.request array =
  Array.of_list
    (List.concat_map
       (fun (b : Asipfb_bench_suite.Benchmark.t) ->
         let q = Asipfb.Pipeline.Query.make ~length:2 Opt_level.O1 in
         [
           Api.Detect { benchmark = b.name; query = q };
           Api.Coverage { benchmark = b.name; query = q };
           Api.Timing
             { benchmark = b.name; level = Opt_level.O1; uarch = "risc5"; clock = None };
           Api.Verify { benchmark = b.name; mode = `Tv };
         ])
       Registry.all)

(* The bytes of a response's result member: the frame ends with it. *)
let result_of frame =
  let key = ",\"result\":" in
  let n = String.length key and m = String.length frame in
  let rec matches i j = j = n || (frame.[i + j] = key.[j] && matches i (j + 1)) in
  let rec find i =
    if i + n > m then None
    else if matches i 0 then Some (String.sub frame (i + n) (m - i - n - 1))
    else find (i + 1)
  in
  find 0

(* --- request stream ---------------------------------------------------- *)

type request = { index : int; frame : string; write : bool; key : int }

type stream = { prng : Prng.t; mutable next : int; mutable read_order : int list }

let shuffle prng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.next_int prng ~bound:(i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Reads cycle through every key, each cycle in a fresh seeded order.
   Writes visit the benchmarks in registry order, each with a fresh
   seeded clock, so every seed sends the same write work in the same
   order: a cycle of twelve writes costs the same on every seed, and the
   write connection's backlog grows exactly when that work outlasts the
   cycle's arrivals. *)
let next_request s =
  let index = s.next in
  s.next <- index + 1;
  let id = string_of_int index in
  if index mod write_every = write_every - 1 then begin
    let names = Array.of_list Registry.names in
    let benchmark = names.((index / write_every) mod Array.length names) in
    (* A clock no earlier request used: the index keeps it unique. *)
    let clock = 1.2 +. (0.3 *. Prng.next_float s.prng) +. (float_of_int index *. 1e-9) in
    let req = Api.Timing { benchmark; level = Opt_level.O1; uarch = "risc5"; clock = Some clock } in
    { index; frame = Api.encode_request ~id req; write = true; key = -1 }
  end
  else begin
    if s.read_order = [] then
      s.read_order <- shuffle s.prng (Array.init (Array.length reads) Fun.id);
    let key = List.hd s.read_order in
    s.read_order <- List.tl s.read_order;
    { index; frame = Api.encode_request ~id reads.(key); write = false; key }
  end

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

(* Relative to the checkout, which keeps it short of the socket path
   limit. *)
let socket_path () = Printf.sprintf "%s/daemon-%d.sock" out_dir (Unix.getpid ())

let connect socket =
  match Client.connect ~socket with Ok c -> Some c | Error _ -> None

let spawn ~asipfb =
  let socket = socket_path () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process asipfb
      [| asipfb; "serve"; "--socket"; socket; "--workers"; string_of_int connections |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let d = { pid; socket } in
  let rec wait tries =
    match connect socket with
    | Some c -> Client.close c
    | None ->
        if tries = 0 then failwith "perfbench: `asipfb serve` did not start";
        Unix.sleepf 0.005;
        wait (tries - 1)
  in
  wait 2000;
  d

let stop d =
  (match connect d.socket with
  | Some c ->
      ignore (Client.rpc c Api.Shutdown);
      Client.close c
  | None -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid)

(* Set-up: start the daemon and ask every read once, so the timed phases
   see a warm memo.  Returns the daemon and the raw warm-up responses. *)
let start ~asipfb =
  let d = spawn ~asipfb in
  let c = Option.get (connect d.socket) in
  let answers =
    Array.map
      (fun req ->
        match Client.rpc_raw c (Api.encode_request ~id:"warm" req) with
        | Ok line -> line
        | Error e -> failwith ("perfbench: warm-up request failed: " ^ e))
      reads
  in
  Client.close c;
  (d, answers)

(* --- the load generator ------------------------------------------------ *)

(* A pipelined connection.  Non-blocking with an outbox: the generator
   never blocks in a write while the daemon blocks writing responses. *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  outbox : Buffer.t;
  pending : int Queue.t;  (** Requests queued or sent, not yet answered. *)
}

let open_conn socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  { fd; inbuf = Buffer.create 65536; outbox = Buffer.create 65536; pending = Queue.create () }

let flush c =
  let s = Buffer.contents c.outbox in
  match Unix.write_substring c.fd s 0 (String.length s) with
  | n ->
      Buffer.clear c.outbox;
      Buffer.add_substring c.outbox s n (String.length s - n)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let chunk = Bytes.create 65536

(* Complete lines now buffered on [c]. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []
  | 0 -> failwith "perfbench: daemon closed the connection"
  | n ->
      Buffer.add_subbytes c.inbuf chunk 0 n;
      let s = Buffer.contents c.inbuf in
      let rec split start acc =
        match String.index_from_opt s start '\n' with
        | Some i -> split (i + 1) (String.sub s start (i - start) :: acc)
        | None ->
            Buffer.clear c.inbuf;
            Buffer.add_substring c.inbuf s start (String.length s - start);
            List.rev acc
      in
      split 0 []

type phase_result = {
  requests : request array;
  latency_ms : float array;  (** Due to response. *)
  lag_ms : float array;  (** Due to sent: how late the generator ran. *)
  ok : bool array;  (** Answered ok:true with the expected result. *)
  results : string option array;  (** Result bytes of writes, checked later. *)
  started : float;
}

(* The longest a phase may take to drain once its last request is due;
   past it the daemon is considered wedged and the run fails. *)
let drain_cap = 20.

let phase (reads, writes) stream ~expected ~rate ~duration =
  let conns = [ reads; writes ] in
  let n = max 1 (int_of_float (rate *. duration)) in
  let requests = Array.init n (fun _ -> next_request stream) in
  let started = now () +. 0.002 in
  let due i = started +. (float_of_int i /. rate) in
  let latency_ms = Array.make n nan and lag_ms = Array.make n 0. in
  let ok = Array.make n false and results = Array.make n None in
  let sent = ref 0 and received = ref 0 in
  let deadline = due (n - 1) +. drain_cap in
  let fds = List.map (fun c -> c.fd) conns in
  while !received < n do
    let t = now () in
    if t > deadline then failwith "perfbench: daemon stopped answering";
    while !sent < n && due !sent <= now () do
      let i = !sent in
      let c = if requests.(i).write then writes else reads in
      lag_ms.(i) <- ms (now () -. due i);
      Buffer.add_string c.outbox requests.(i).frame;
      Buffer.add_char c.outbox '\n';
      Queue.push i c.pending;
      incr sent
    done;
    List.iter (fun c -> if Buffer.length c.outbox > 0 then flush c) conns;
    let writers = List.filter_map (fun c -> if Buffer.length c.outbox > 0 then Some c.fd else None) conns in
    let timeout = if !sent < n then Float.max 0. (due !sent -. now ()) else 0.05 in
    match Unix.select fds writers [] timeout with
    | ready, _, _ ->
        List.iter
          (fun c ->
            if List.mem c.fd ready then
              List.iter
                (fun line ->
                  let i = Queue.pop c.pending in
                  latency_ms.(i) <- ms (now () -. due i);
                  incr received;
                  let r = requests.(i) in
                  match result_of line with
                  | None -> ()
                  | Some res when r.write -> ok.(i) <- true; results.(i) <- Some res
                  | Some res -> ok.(i) <- Digest.string res = expected.(r.key))
                (read_lines c))
          conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  { requests; latency_ms; lag_ms; ok; results; started }

let as_phase rate p =
  {
    Stats.rate;
    latencies = Array.mapi (fun i l -> if p.ok.(i) then Some l else None) p.latency_ms;
  }

(* Every request has its response before a phase ends, so every latency
   is known; a failed request still took its time. *)
let latencies p = Array.to_list p.latency_ms

(* Writes are checked after the load, so the check never competes with
   the daemon for the CPU: each result must equal the in-process
   server's answer to the same frame.  The daemon is idle by then, so the
   check runs on two domains. *)
let check_writes reference phases =
  let writes =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun i -> if p.requests.(i).write then Some (p, i) else None)
          (List.init (Array.length p.requests) Fun.id))
      phases
  in
  let check part =
    List.iter
      (fun (p, i) ->
        if result_of (Server.handle_line reference p.requests.(i).frame) <> p.results.(i)
        then p.ok.(i) <- false)
      part
  in
  let half = List.filteri (fun k _ -> k mod 2 = 0) writes in
  let other = Domain.spawn (fun () -> check (List.filteri (fun k _ -> k mod 2 = 1) writes)) in
  check half;
  Domain.join other

let failures phases =
  List.fold_left
    (fun acc p -> acc + Array.fold_left (fun a ok -> if ok then a else a + 1) 0 p.ok)
    0 phases

let attempts phases = List.fold_left (fun acc p -> acc + Array.length p.ok) 0 phases

let stats_of d =
  let c = Option.get (connect d.socket) in
  let r = Client.rpc c Api.Stats in
  Client.close c;
  match r with
  | Ok { body = Ok (Api.Stats_result s); _ } -> s
  | _ -> failwith "perfbench: stats request failed"

let run ~asipfb ~seed ~seconds ~trace_file =
  (* Set-up is repeated like the other workloads'; stopping the previous
     daemon is not part of it. *)
  let rec setups i acc =
    let t, started = time (fun () -> start ~asipfb) in
    if i = setup_reps then (t :: acc, started)
    else begin
      stop (fst started);
      setups (i + 1) (t :: acc)
    end
  in
  let setup_times, (d, answers) = setups 1 [] in
  let setup_s = report_setup setup_times in
  let alive = ref true in
  (* A run that fails part-way must not leave the daemon behind. *)
  at_exit (fun () ->
      if !alive then
        try
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
        with Unix.Unix_error _ -> ());
  let reference = Server.create ~engine:(Engine.create ()) () in
  let expected =
    Array.map
      (fun req ->
        match result_of (Server.handle_line reference (Api.encode_request ~id:"ref" req)) with
        | Some res -> Digest.string res
        | None -> failwith "perfbench: in-process reference answered an error")
      reads
  in
  let warm_failed =
    List.length
      (List.filter (fun ok -> not ok)
         (List.map2
            (fun line e -> Option.map Digest.string (result_of line) = Some e)
            (Array.to_list answers) (Array.to_list expected)))
  in
  (* The daemon's own answers to the timing reads. *)
  let asip_speedup =
    mean
      (List.filter_map
         (fun line ->
           match Api.decode_response line with
           | Ok { body = Ok (Api.Timing_result r); _ } -> Some r.t_measured_speedup
           | _ -> None)
         (Array.to_list answers))
  in
  let stream = { prng = Prng.create ~seed; next = 0; read_order = [] } in
  let conns = (open_conn d.socket, open_conn d.socket) in
  let run_phase ~rate ~duration = phase conns stream ~expected ~rate ~duration in
  let finish () =
    Unix.close (fst conns).fd;
    Unix.close (snd conns).fd;
    let s = stats_of d in
    stop d;
    alive := false;
    s
  in
  match trace_file with
  | None ->
      let base = run_phase ~rate:base_rate ~duration:(base_share *. seconds) in
      (* Peak memory after the fixed base phase: the search that follows
         sends a timing-dependent number of writes, each a memo entry. *)
      let rss = peak_rss_mb (string_of_int d.pid) in
      let probes = ref [ base ] in
      let duration = (1. -. base_share) *. seconds /. float_of_int max_probes in
      let probe rate =
        let p =
          if rate = base_rate then base
          else begin
            let p = run_phase ~rate ~duration in
            probes := p :: !probes;
            p
          end
        in
        let phase = as_phase rate p in
        let passes = Stats.phase_passes ~limit_ms phase in
        Printf.eprintf "perfbench: %.0f/s for %.2f s: tail %s ms, backlog %b -> %s\n%!"
          rate (float_of_int (Array.length p.ok) /. rate)
          (match Stats.tail (latencies p) with
          | Some t -> Printf.sprintf "%.1f" t.value
          | None -> "-")
          (Stats.backlog_growing ~limit_ms phase)
          (if passes then "pass" else "fail");
        passes
      in
      let max_rps = Stats.max_rate ~probe ~base:base_rate ~grow ~ceiling ~steps:search_steps in
      ignore (finish ());
      check_writes reference !probes;
      let p50, tail = latency_pair ~what:"daemon request" (latencies base) in
      Printf.eprintf "perfbench: daemon max rate %.1f/s under a %.0f ms tail limit\n%!" max_rps limit_ms;
      {
        attempted = attempts !probes + Array.length reads;
        failed = failures !probes + warm_failed;
        metrics =
          [
            metric "setup_s" "s" setup_s;
            metric "peak_rss_mb" "MB" rss;
            metric "latency_p50_ms" "ms" p50;
            metric "latency_tail_ms" "ms" tail;
            metric "throughput_per_s" "1/s" max_rps;
            metric "asip_speedup" "x" asip_speedup;
          ];
      }
  | Some file ->
      let plain = run_phase ~rate:base_rate ~duration:(seconds /. 2.) in
      check_writes reference [ plain ];
      let tr = Trace.create ~enabled:true in
      let from = now () in
      let traced =
        Trace.span tr "daemon.phase" (fun () ->
            let p = run_phase ~rate:base_rate ~duration:(seconds /. 2.) in
            Array.iteri
              (fun i (r : request) ->
                let start = p.started +. (float_of_int i /. base_rate) in
                Trace.record tr ~request:r.index "daemon.request" ~start
                  ~stop:(start +. (p.latency_ms.(i) /. 1000.)))
              p.requests;
            p)
      in
      (* In-process replay of the traced frames on the reference server:
         the service rows, and the check of every traced response. *)
      let hits_before = (Server.service_stats reference).memo_hits in
      let handle_ms = Array.make (Array.length traced.requests) 0. in
      let (), minor, majors =
        gc_window (fun () ->
            Trace.span tr "replay.service" (fun () ->
                Array.iteri
                  (fun i (r : request) ->
                    ignore (Trace.span tr ~request:r.index "service.decode" (fun () ->
                        Api.decode_request r.frame));
                    let start = now () in
                    let answer = Server.handle_line reference r.frame in
                    let stop = now () in
                    handle_ms.(i) <- ms (stop -. start);
                    let decoded = Api.decode_response answer in
                    let name =
                      match decoded with
                      | Ok { cache = Api.Hit; _ } -> "service.handle_hit"
                      | _ -> "service.handle_miss"
                    in
                    Trace.record tr ~request:r.index name ~start ~stop;
                    Result.iter
                      (fun resp ->
                        ignore (Trace.span tr ~request:r.index "service.encode" (fun () ->
                            Api.encode_response resp)))
                      decoded;
                    let res = result_of answer in
                    let good =
                      match res with
                      | None -> false
                      | Some res when r.write -> traced.results.(i) = Some res
                      | Some res -> Digest.string res = expected.(r.key)
                    in
                    if not good then traced.ok.(i) <- false)
                  traced.requests))
      in
      let until = now () in
      let daemon_stats = finish () in
      let queue_ms =
        Stats.median
          (Array.to_list (Array.mapi (fun i l -> l -. handle_ms.(i)) traced.latency_ms))
      in
      let lag = Stats.tail (Array.to_list traced.lag_ms) in
      let failed = failures [ plain; traced ] + warm_failed in
      let attempted = attempts [ plain; traced ] + Array.length reads in
      let total name = Trace.total tr name in
      Trace.write_chrome tr file;
      {
        attempted;
        failed;
        metrics =
          [
            metric "service.decode_s" "s" (total "service.decode");
            metric "service.encode_s" "s" (total "service.encode");
            metric "service.handle_hit_s" "s" (total "service.handle_hit");
            metric "service.handle_miss_s" "s" (total "service.handle_miss");
            metric "service.memo_hits" "count"
              (float_of_int ((Server.service_stats reference).memo_hits - hits_before));
            metric "service.coalesced" "count" (float_of_int daemon_stats.service.coalesced);
            metric "daemon.queue_ms" "ms" queue_ms;
            metric "daemon.gen_lag_ms" "ms"
              (match lag with Some t -> t.value | None -> 0.);
          ]
          @ engine_metrics daemon_stats.engine
          @ trace_metrics ~minor ~majors ~ops:(Array.length traced.requests)
              ~coverage:(Trace.coverage tr ~from ~until)
              ~overhead_s:
                ((Stats.median (latencies traced) -. Stats.median (latencies plain)) /. 1000.)
              ~failed ~attempted;
      }
