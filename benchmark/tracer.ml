(* The traced run's instrumentation, all outside the program: spans kept
   in memory and written out at the end, a host-time sink that charges
   each dispatched message's handler to its protocol-instance family, and
   a pass-through frame tap. *)

type span = {
  id : int;
  name : string;
  start : float;         (* host CPU seconds *)
  stop : float;
  parent : int;          (* -1 at the root *)
}

type t = {
  run_id : string;
  mutable spans : span list;   (* newest first *)
  mutable next : int;
}

let create ~(run_id : string) : t = { run_id; spans = []; next = 0 }

let fresh (tr : t) : int =
  let id = tr.next in
  tr.next <- id + 1;
  id

let record (tr : t) ~(id : int) ~(parent : int) ~(name : string) ~(start : float)
    ~(stop : float) : unit =
  tr.spans <- { id; name; start; stop; parent } :: tr.spans

(* Run [f] inside a span; returns its result and the span's id. *)
let span (tr : t) ?(parent = -1) (name : string) (f : int -> 'a) : 'a =
  let id = fresh tr in
  let start = Clock.cpu () in
  let r = f id in
  record tr ~id ~parent ~name ~start ~stop:(Clock.cpu ());
  r

let spans (tr : t) : span list = List.rev tr.spans

(* Self time: a span's duration minus the union of its children's
   intervals (children of one parent never overlap here, so a sum). *)
let self_times (tr : t) : (span * float) list =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
           +. (s.stop -. s.start)))
    tr.spans;
  List.map
    (fun s ->
      (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)))
    (spans tr)

let subtree (tr : t) (root : int) : span list =
  let parent_of = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace parent_of s.id s.parent) tr.spans;
  let rec under id =
    id = root
    || (match Hashtbl.find_opt parent_of id with
        | Some p when p >= 0 -> under p
        | _ -> false)
  in
  List.filter (fun s -> under s.id) (spans tr)

let write (tr : t) ~(dir : string) : string =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir ("spans-" ^ tr.run_id ^ ".jsonl") in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run_id\": %S, \"id\": %d, \"parent\": %d, \"name\": %S, \
         \"start_s\": %.9f, \"end_s\": %.9f}\n"
        tr.run_id s.id s.parent s.name s.start s.stop)
    (spans tr);
  close_out oc;
  path

(* --- host time per protocol-instance family --- *)

(* The instance family of a runtime pid: [<chan>] is the atomic channel,
   [<chan>/mv.<r>] a round's MVBA, [.../p.<i>] its VCBC and [.../ba.<a>]
   its ABA. *)
let family (pid : string) : string =
  let last =
    match String.rindex_opt pid '/' with
    | Some i -> String.sub pid (i + 1) (String.length pid - i - 1)
    | None -> pid
  in
  let starts p = String.length last >= String.length p && String.sub last 0 (String.length p) = p in
  if starts "mv." then "mvba"
  else if starts "p." then "vcbc"
  else if starts "ba." then "aba"
  else "abc"

let families = [ "abc"; "mvba"; "vcbc"; "aba" ]

type attribution = {
  tr : t;
  mutable parent : int;
  mutable fam : string;          (* family charged since [since] *)
  mutable since : float;
  totals : (string, float) Hashtbl.t;
}

let close (a : attribution) (now : float) : unit =
  if now > a.since then begin
    record a.tr ~id:(fresh a.tr) ~parent:a.parent ~name:("sintra." ^ a.fam)
      ~start:a.since ~stop:now;
    Hashtbl.replace a.totals a.fam
      (Option.value ~default:0.0 (Hashtbl.find_opt a.totals a.fam) +. (now -. a.since))
  end;
  a.since <- now

(* The interval from one dispatch to the next is the first dispatch's
   handler (plus the engine work between them); it is charged to that
   dispatch's family.  Work before the first dispatch is "other". *)
let attribute (tr : t) : attribution * Trace.Sink.t =
  let a = { tr; parent = -1; fam = "other"; since = Clock.cpu (); totals = Hashtbl.create 8 } in
  let sink =
    Trace.Sink.Fn
      (fun ev ->
        if ev.Trace.Event.ph = Trace.Event.Flow_end && ev.Trace.Event.name = "msg" then begin
          let fam = family ev.Trace.Event.pid in
          if fam <> a.fam then begin
            close a (Clock.cpu ());
            a.fam <- fam
          end
        end)
  in
  (a, sink)

let start (a : attribution) ~(parent : int) : unit =
  a.parent <- parent;
  a.fam <- "other";
  a.since <- Clock.cpu ()

let finish (a : attribution) : unit = close a (Clock.cpu ())

let total_ms (a : attribution) (fam : string) : float =
  1000.0 *. Option.value ~default:0.0 (Hashtbl.find_opt a.totals fam)

(* --- frame tap --- *)

(* Every [stride]-th frame is kept, at most [cap] of them. *)
let stride = 8
let cap = 4096

type frames = {
  mutable seen : int;
  mutable count : int;
  mutable kept : (int * int * string) list;
}

let frames () : frames = { seen = 0; count = 0; kept = [] }

(* A pass-through intercept: always [Deliver], the branch taken with no
   intercept installed; every [stride]-th frame is kept for the wire and
   hash timings. *)
let tap (f : frames) : src:int -> dst:int -> string -> Sim.Net.action =
 fun ~src ~dst payload ->
  if f.seen mod stride = 0 && f.count < cap then begin
    f.kept <- (src, dst, payload) :: f.kept;
    f.count <- f.count + 1
  end;
  f.seen <- f.seen + 1;
  Sim.Net.Deliver

let captured (f : frames) : (int * int * string) list = List.rev f.kept
