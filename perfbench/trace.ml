module Json = Asipfb_service.Json

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  request : int;
}

type t = {
  enabled : bool;
  origin : float;
  mutable next : int;
  mutable open_ : int list;  (** Ids of the open spans, innermost first. *)
  mutable done_ : span list;  (** Newest first. *)
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next = 1; open_ = []; done_ = [] }

let span t ?(request = -1) name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> 0 in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        t.open_ <- List.tl t.open_;
        t.done_ <- { id; name; start; stop; parent; request } :: t.done_)
  end

let record t ?(request = -1) name ~start ~stop =
  if t.enabled then begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> 0 in
    t.done_ <- { id; name; start; stop; parent; request } :: t.done_
  end

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.done_

let total ?(from = neg_infinity) ?(until = infinity) t name =
  List.fold_left
    (fun acc s ->
      if s.name = name && s.start >= from && s.stop <= until then
        acc +. (s.stop -. s.start)
      else acc)
    0. t.done_

(* Root spans never overlap (one domain records them), so their clipped
   durations add up to the covered time. *)
let coverage t ~from ~until =
  let covered =
    List.fold_left
      (fun acc s ->
        if s.parent <> 0 then acc
        else acc +. Float.max 0. (Float.min until s.stop -. Float.max from s.start))
      0. t.done_
  in
  covered /. (until -. from)

let write_chrome t path =
  (* Microseconds from the recorder's creation keep every timestamp
     exact in the printer's twelve significant digits. *)
  let us x = Json.Float (Float.round (x *. 1e6)) in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", us (s.start -. t.origin));
        ("dur", us (s.stop -. s.start));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("request", Json.Int s.request);
            ] );
      ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("traceEvents", Json.List (List.map event (spans t))) ])))
