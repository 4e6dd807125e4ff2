let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles, method='exclusive': m = n + 1 points,
   cut i at i*m/n with j clamped to [1, n-1] and exact integer delta. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let n = 4 and m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (cut 1, cut 2, cut 3)

let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

type tail = { value : float; percentile : float; samples : int }

let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      {
        value = a.(n - beyond - 1);
        percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
        samples = n;
      }

type phase = { rate : float; latencies : float option array }

let backlog_growing ~limit_ms p =
  let n = Array.length p.latencies in
  let q = n / 4 in
  if q = 0 then false
  else
    (* A missing response is the worst latency there is. *)
    let part off =
      median
        (List.init q (fun i ->
             Option.value p.latencies.(off + i) ~default:infinity))
    in
    part (n - q) -. part 0 > limit_ms /. 4.

let phase_passes ~limit_ms p =
  let answered = Array.to_list p.latencies |> List.filter_map Fun.id in
  List.length answered = Array.length p.latencies
  && (match tail answered with
     | Some t -> t.value <= limit_ms
     | None -> false)
  && not (backlog_growing ~limit_ms p)

let max_rate ~probe ~base ~grow ~ceiling ~steps =
  let rec up lo =
    let hi = lo *. grow in
    if hi > ceiling then (lo, None)
    else if probe hi then up hi
    else (lo, Some hi)
  in
  let rec down hi k =
    if k = 0 then (0., Some hi)
    else
      let lo = hi /. grow in
      if probe lo then (lo, Some hi) else down lo (k - 1)
  in
  let rec bisect lo hi k =
    if k = 0 then lo
    else
      let mid = sqrt (lo *. hi) in
      if probe mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  match if probe base then up base else down base steps with
  | lo, None -> lo
  | 0., Some _ -> 0.
  | lo, Some hi -> bisect lo hi steps
