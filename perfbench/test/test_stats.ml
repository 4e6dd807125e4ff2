(* Self-tests for the benchmark's own statistics: the numbers it reports
   are only as good as these functions. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let floats = List.map float_of_int

let test_median () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median single" (close (Stats.median [ 7. ]) 7.);
  check "median empty raises"
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true)

(* Expected values from Python: statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q xs = Stats.quartiles (floats xs) in
  let eq (a, b, c) (x, y, z) = close a x && close b y && close c z in
  check "quartiles 1..10" (eq (q [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]) (2.75, 5.5, 8.25));
  check "quartiles 1..5" (eq (q [ 5; 1; 4; 2; 3 ]) (1.5, 3., 4.5));
  check "quartiles two" (eq (q [ 1; 2 ]) (0.75, 1.5, 2.25));
  check "quartiles 1..4" (eq (q [ 1; 2; 3; 4 ]) (1.25, 2.5, 3.75));
  check "quartiles one raises"
    (match Stats.quartiles [ 1. ] with _ -> false | exception Invalid_argument _ -> true);
  check "iqr share" (close (Stats.iqr_share (floats [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])) (5.5 /. 5.5))

let test_tail () =
  check "tail needs more than ten" (Stats.tail (floats (List.init 10 Fun.id)) = None);
  (match Stats.tail (floats (List.init 11 (fun i -> 10 - i))) with
  | Some t -> check "tail of 11 is the smallest" (close t.value 0. && t.samples = 11)
  | None -> check "tail of 11 exists" false);
  (match Stats.tail (floats (List.init 100 (fun i -> i + 1))) with
  | Some t ->
      check "tail of 100 is p90" (close t.value 90. && close t.percentile 90.);
      check "ten samples beyond"
        (List.length (List.filter (fun x -> x > t.value) (floats (List.init 100 (fun i -> i + 1)))) = 10)
  | None -> check "tail of 100 exists" false);
  match Stats.tail ~beyond:1 (floats [ 1; 2; 3 ]) with
  | Some t -> check "tail beyond 1" (close t.value 2.)
  | None -> check "tail beyond 1 exists" false

let phase ?(rate = 100.) latencies = { Stats.rate; latencies = Array.of_list latencies }
let flat n ms = List.init n (fun _ -> Some ms)

let test_phase () =
  check "steady phase passes" (Stats.phase_passes ~limit_ms:50. (phase (flat 100 5.)));
  check "slow tail fails" (not (Stats.phase_passes ~limit_ms:50. (phase (flat 100 60.))));
  check "short phase has no tail" (not (Stats.phase_passes ~limit_ms:50. (phase (flat 5 1.))));
  (* One failed request is a miss of the limit, however fast the rest. *)
  check "failed request fails the phase"
    (not (Stats.phase_passes ~limit_ms:50. (phase (None :: flat 99 1.))));
  (* Latency climbing through the phase: a growing queue, even though the
     tail (ten samples beyond) is still under the limit. *)
  let ramp = List.init 100 (fun i -> Some (if i < 80 then 1. else 1. +. (2. *. float_of_int (i - 80)))) in
  check "backlog detected" (Stats.backlog_growing ~limit_ms:50. (phase ramp));
  check "ramp tail under limit"
    (match Stats.tail (List.filter_map Fun.id ramp) with
    | Some t -> t.value <= 50.
    | None -> false);
  check "backlog fails the phase" (not (Stats.phase_passes ~limit_ms:50. (phase ramp)));
  check "no backlog when flat" (not (Stats.backlog_growing ~limit_ms:50. (phase (flat 100 5.))))

(* A simulated daemon that keeps up to [capacity] requests per second. *)
let test_max_rate () =
  let search capacity =
    let probes = ref 0 in
    let probe rate = incr probes; rate <= capacity in
    let r = Stats.max_rate ~probe ~base:100. ~grow:2. ~ceiling:3200. ~steps:4 in
    (r, !probes)
  in
  let r, probes = search 1000. in
  check "max rate below capacity" (r <= 1000.);
  check "max rate within resolution" (r >= 1000. /. (2. ** (1. /. 16.)) /. 1.0001);
  check "probe count bounded" (probes <= 1 + 5 + 4);
  let r, _ = search 10_000. in
  check "ceiling caps the search" (close r 3200.);
  let r, _ = search 60. in
  check "base failing searches down" (r > 0. && r <= 60. && r >= 50. /. 1.1);
  let r, _ = search 1. in
  check "nothing passes" (close r 0.);
  (* A failed request makes a phase fail, so a probe built on
     phase_passes treats it as over the limit. *)
  let probe rate =
    let lat = if rate > 400. then None :: flat 99 1. else flat 100 1. in
    Stats.phase_passes ~limit_ms:50. (phase ~rate lat)
  in
  let r = Stats.max_rate ~probe ~base:100. ~grow:2. ~ceiling:3200. ~steps:4 in
  check "failure counts as a miss" (r <= 400. && r >= 400. /. 1.05)

let () =
  test_median ();
  test_quartiles ();
  test_tail ();
  test_phase ();
  test_max_rate ();
  if !failures > 0 then exit 1
