(* The oracle library: protocol-level correctness predicates evaluated over
   the observations of one finished run.

   The observation record is deliberately protocol-agnostic — origins and
   payloads, per-party delivery logs, per-party decisions — so one oracle
   set serves every workload.  Soundness relies on the schedule generator's
   contract (Schedule.generate): destructive mutations only ever hit the
   [degraded] parties, at most t of them, so

   - safety properties (agreement, order, integrity, validity) must hold
     for every honest party, degraded or not;
   - liveness properties are only demanded of the never-degraded honest
     majority, and only for messages submitted by never-degraded honest
     senders. *)

type kind =
  | Reliable | Consistent | Aba | Mvba | Atomic | Secure | Throughput
  | Pipeline | Amortized | Durable

let kind_to_string (k : kind) : string =
  match k with
  | Reliable -> "reliable"
  | Consistent -> "consistent"
  | Aba -> "aba"
  | Mvba -> "mvba"
  | Atomic -> "atomic"
  | Secure -> "secure"
  | Throughput -> "throughput"
  | Pipeline -> "pipeline"
  | Amortized -> "crypto-amortized"
  | Durable -> "durable"

let kinds =
  [ Reliable; Consistent; Aba; Mvba; Atomic; Secure; Throughput; Pipeline;
    Amortized; Durable ]

type obs = {
  kind : kind;
  n : int;
  t : int;
  degraded : int list;
  corrupted : int list;
  sent : (int * string) list;
  delivered : (int * string) list array;
  decisions : string option array;
  proposals : string option array;
  flagged : (int * string) list array;
  quiesced : bool;
  events : int;
  vtime : float;
}

type verdict = Pass | Fail of string

type oracle = {
  name : string;
  check : obs -> verdict;
}

(* --- helpers --- *)

let honest (o : obs) (p : int) : bool = not (List.mem p o.corrupted)
let steady (o : obs) (p : int) : bool = honest o p && not (List.mem p o.degraded)

let parties (o : obs) : int list = List.init o.n (fun i -> i)

let cmp_entry ((o1, p1) : int * string) ((o2, p2) : int * string) : int =
  if o1 <> o2 then Int.compare o1 o2 else String.compare p1 p2

let sorted_log (o : obs) (p : int) : (int * string) list =
  List.sort cmp_entry o.delivered.(p)

(* Is [small] a sub-multiset of [big]?  Both sorted by {!cmp_entry}. *)
let rec sub_multiset (small : (int * string) list) (big : (int * string) list)
    : bool =
  match (small, big) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: srest, b :: brest ->
    let c = cmp_entry s b in
    if c = 0 then sub_multiset srest brest
    else if c > 0 then sub_multiset small brest
    else false

let rec is_prefix (short : (int * string) list) (long : (int * string) list)
    : bool =
  match (short, long) with
  | [], _ -> true
  | _ :: _, [] -> false
  | s :: srest, l :: lrest -> cmp_entry s l = 0 && is_prefix srest lrest

let describe_entry ((origin, payload) : int * string) : string =
  Printf.sprintf "(%d,%S)" origin payload

(* --- the oracles --- *)

(* Agreement.  For the agreement workloads: every honest decision is the
   same.  For the broadcast workloads: (a) consistency — for each origin,
   the k-th delivery from that origin is the same at every honest party
   that got that far (per-origin deliveries are in sequence order); and
   (b) totality where the protocol promises it (reliable, atomic, secure):
   at quiescence all never-degraded honest parties hold the same delivery
   multiset.  Consistent broadcast promises no totality, so only (a). *)
let agreement : oracle =
  let check (o : obs) : verdict =
    match o.kind with
    | Aba | Mvba ->
      let decisions =
        List.filter_map
          (fun p -> if honest o p then o.decisions.(p) else None)
          (parties o)
      in
      (match decisions with
       | [] -> Pass
       | first :: rest ->
         (match List.find_opt (fun d -> d <> first) rest with
          | Some other ->
            Fail (Printf.sprintf "honest decisions differ: %S vs %S" first other)
          | None -> Pass))
    | Reliable | Consistent | Atomic | Secure | Throughput | Pipeline
    | Amortized | Durable ->
      (* The durable kind holds only steady parties to position-wise
         consistency: snapshot state transfer legitimately skips history
         (the adopter's app log has gaps), and a restarted party's
         re-proposed own payloads can deliver late at itself while
         deduplicating away at full-history parties.  Such parties are in
         [degraded]; integrity still covers them. *)
      let honest_parties =
        List.filter
          (if o.kind = Durable then steady o else honest o)
          (parties o)
      in
      let per_origin (p : int) (origin : int) : string list =
        List.filter_map
          (fun (og, pl) -> if og = origin then Some pl else None)
          o.delivered.(p)
      in
      let consistency_breach =
        List.find_map
          (fun origin ->
            let logs = List.map (fun p -> (p, per_origin p origin)) honest_parties in
            List.find_map
              (fun (p, log) ->
                List.find_map
                  (fun (q, log') ->
                    if q <= p then None
                    else
                      let rec conflict k l l' =
                        match (l, l') with
                        | x :: lr, y :: lr' ->
                          if String.equal x y then conflict (k + 1) lr lr'
                          else
                            Some
                              (Printf.sprintf
                                 "origin %d delivery %d: party %d got %S, party %d got %S"
                                 origin k p x q y)
                        | _, _ -> None
                      in
                      conflict 0 log log')
                  logs)
              logs)
          (parties o)
      in
      (match consistency_breach with
       | Some why -> Fail why
       | None ->
         if o.kind = Consistent || o.kind = Amortized || not o.quiesced then
           Pass
         else begin
           let steady_logs =
             List.filter_map
               (fun p -> if steady o p then Some (p, sorted_log o p) else None)
               (parties o)
           in
           match steady_logs with
           | [] -> Pass
           | (p0, log0) :: rest ->
             (match List.find_opt (fun (_, log) -> log <> log0) rest with
              | Some (q, _) ->
                Fail
                  (Printf.sprintf
                     "totality: parties %d and %d delivered different sets" p0 q)
              | None -> Pass)
         end)
  in
  { name = "agreement"; check }

(* Total order (atomic and secure channels): any two honest delivery
   sequences are prefix-comparable. *)
let total_order : oracle =
  let check (o : obs) : verdict =
    match o.kind with
    | Reliable | Consistent | Aba | Mvba | Amortized -> Pass
    | Atomic | Secure | Throughput | Pipeline | Durable ->
      (* Durable: steady parties only, for the same reason as the
         agreement oracle — snapshot adopters and restarted parties hold
         gappy or locally-reordered (but integrity-clean) logs. *)
      let honest_parties =
        List.filter
          (if o.kind = Durable then steady o else honest o)
          (parties o)
      in
      let logs = List.map (fun p -> (p, o.delivered.(p))) honest_parties in
      let breach =
        List.find_map
          (fun (p, lp) ->
            List.find_map
              (fun (q, lq) ->
                if q <= p then None
                else if
                  List.length lp <= List.length lq
                  && is_prefix lp lq
                  || List.length lq < List.length lp
                     && is_prefix lq lp
                then None
                else
                  Some
                    (Printf.sprintf
                       "parties %d and %d delivered non-prefix-comparable sequences"
                       p q))
              logs)
          logs
      in
      (match breach with Some why -> Fail why | None -> Pass)
  in
  { name = "total-order"; check }

(* Integrity: no creation (every delivery from an honest origin was really
   submitted by it) and no duplication (each party delivers a given message
   at most once; workload payloads are unique). *)
let integrity : oracle =
  let check (o : obs) : verdict =
    let sent_sorted = List.sort cmp_entry o.sent in
    let breach =
      List.find_map
        (fun p ->
          if not (honest o p) then None
          else begin
            let log = sorted_log o p in
            let rec dup l =
              match l with
              | a :: (b :: _ as rest) ->
                if cmp_entry a b = 0 then Some a else dup rest
              | [ _ ] | [] -> None
            in
            match dup log with
            | Some e ->
              Some
                (Printf.sprintf "party %d delivered %s twice" p (describe_entry e))
            | None ->
              let from_honest =
                List.filter (fun (origin, _) -> honest o origin) log
              in
              if sub_multiset from_honest sent_sorted then None
              else
                let ghost =
                  List.find_opt
                    (fun e -> not (List.exists (fun s -> cmp_entry s e = 0) o.sent))
                    from_honest
                in
                Some
                  (Printf.sprintf "party %d delivered %s never submitted" p
                     (match ghost with
                      | Some e -> describe_entry e
                      | None -> "a message"))
          end)
        (parties o)
    in
    (match breach with Some why -> Fail why | None -> Pass)
  in
  { name = "integrity"; check }

(* Validity (agreement workloads, no corrupted parties): a decision must be
   one of the honest proposals, and under unanimity it must be the common
   proposal.  Gated on [corrupted = []] because binary agreement without
   external validity does not promise unanimity-validity against forged
   Byzantine pre-votes. *)
let validity : oracle =
  let check (o : obs) : verdict =
    match o.kind with
    | Reliable | Consistent | Atomic | Secure | Throughput | Pipeline
    | Amortized | Durable -> Pass
    | Aba | Mvba ->
      if o.corrupted <> [] then Pass
      else begin
        let props =
          List.filter_map
            (fun p -> if honest o p then o.proposals.(p) else None)
            (parties o)
        in
        let unanimous =
          match props with
          | [] -> None
          | first :: rest ->
            if List.for_all (fun v -> String.equal v first) rest then Some first
            else None
        in
        let breach =
          List.find_map
            (fun p ->
              match o.decisions.(p) with
              | None -> None
              | Some d ->
                (match unanimous with
                 | Some v when not (String.equal d v) ->
                   Some
                     (Printf.sprintf
                        "party %d decided %S against unanimous proposal %S" p d v)
                 | _ ->
                   if List.exists (String.equal d) props then None
                   else
                     Some
                       (Printf.sprintf
                          "party %d decided %S, which no honest party proposed" p d)))
            (parties o)
        in
        match breach with Some why -> Fail why | None -> Pass
      end
  in
  { name = "validity"; check }

(* Bounded-quiescence liveness: the run must quiesce within its bounds, and
   then every never-degraded honest party must have delivered everything
   submitted by never-degraded honest senders (or decided, for the
   agreement workloads). *)
let liveness : oracle =
  let check (o : obs) : verdict =
    if not o.quiesced then
      Fail
        (Printf.sprintf "did not quiesce within bounds (%d events, %.1fs)"
           o.events o.vtime)
    else
      match o.kind with
      | Aba | Mvba ->
        (match
           List.find_opt
             (fun p -> steady o p && o.decisions.(p) = None)
             (parties o)
         with
         | Some p -> Fail (Printf.sprintf "party %d never decided" p)
         | None -> Pass)
      | Reliable | Consistent | Atomic | Secure | Throughput | Pipeline
      | Amortized | Durable ->
        let required =
          List.sort cmp_entry
            (List.filter (fun (origin, _) -> steady o origin) o.sent)
        in
        (match
           List.find_map
             (fun p ->
               if not (steady o p) then None
               else if sub_multiset required (sorted_log o p) then None
               else
                 let missing =
                   List.find_opt
                     (fun e ->
                       not
                         (List.exists
                            (fun d -> cmp_entry d e = 0)
                            o.delivered.(p)))
                     required
                 in
                 Some
                   (Printf.sprintf "party %d never delivered %s" p
                      (match missing with
                       | Some e -> describe_entry e
                       | None -> "a required message")))
             (parties o)
         with
         | Some why -> Fail why
         | None -> Pass)
  in
  { name = "liveness"; check }

(* Invariant flags: protocols may flag corrupted parties, but an honest
   party flagged by an honest observer is a false accusation — either a
   protocol bug or an oracle-model bug, and either way a finding. *)
let flags : oracle =
  let check (o : obs) : verdict =
    match
      List.find_map
        (fun p ->
          if not (honest o p) then None
          else
            List.find_map
              (fun (offender, why) ->
                if honest o offender then
                  Some
                    (Printf.sprintf "party %d flagged honest party %d: %s" p
                       offender why)
                else None)
              o.flagged.(p))
        (parties o)
    with
    | Some why -> Fail why
    | None -> Pass
  in
  { name = "flags"; check }

let all (k : kind) : oracle list =
  match k with
  | Reliable | Consistent | Amortized ->
    [ agreement; integrity; liveness; flags ]
  | Aba | Mvba -> [ agreement; validity; liveness; flags ]
  | Atomic | Secure | Throughput | Pipeline | Durable ->
    [ agreement; total_order; integrity; liveness; flags ]
