(* Tests for the causal-DAG reconstruction and critical-path attribution
   (lib/trace causal): hand-crafted event streams with known attributions
   — linear chains, diamond dependencies, crypto-span nesting, clipping,
   concurrent rounds, orphaned edges — plus an integration run over a real
   cluster and byte-determinism of the latency-bench report. *)

open Sintra

let ev ?(party = 0) ?(pid = "ch") ?(cat = "net") ?(args = []) ~time ph name =
  Trace.Event.make ~args ~time ~party ~pid ~cat ~ph name

let iarg k v = (k, Trace.Event.Int v)
let farg k v = (k, Trace.Event.Float v)

(* The four records of one message's lifecycle: flow start at the sender,
   departure, arrival, dispatch (flow end, under the handler's pid). *)
let msg ~id ?(parent = -1) ~send ~xmit ~recv ~disp ?(pid = "ch") () :
    Trace.Event.t list =
  let id_args = [ iarg "id" id ] in
  let start_args =
    if parent >= 0 then id_args @ [ iarg "cause" parent ] else id_args
  in
  [
    ev ~time:send ~args:start_args Trace.Event.Flow_start "msg";
    ev ~time:xmit ~args:id_args Trace.Event.Instant "xmit";
    ev ~party:1 ~time:recv ~args:id_args Trace.Event.Instant "recv";
    ev ~party:1 ~pid ~time:disp ~args:id_args Trace.Event.Flow_end "msg";
  ]

let enqueue ?(party = 0) ~seq ~time () =
  ev ~party ~cat:"abc" ~time ~args:[ iarg "seq" seq ] Trace.Event.Instant
    "enqueue"

let deliver ?(party = 0) ~seq ~time ~cause () =
  ev ~party ~cat:"abc" ~time
    ~args:[ iarg "sender" party; iarg "seq" seq; iarg "cause" cause ]
    Trace.Event.Instant "deliver"

let the_payload (r : Trace.Causal.report) : Trace.Causal.payload =
  match r.Trace.Causal.r_payloads with
  | [ p ] -> p
  | l -> Alcotest.failf "expected exactly one payload, got %d" (List.length l)

let check_phase name expect actual =
  Alcotest.(check (float 1e-9)) name expect actual

let suite = [
  Alcotest.test_case "linear chain: phases tile the interval" `Quick (fun () ->
    let events =
      [ enqueue ~seq:0 ~time:0.0 () ]
      @ msg ~id:0 ~send:0.0 ~xmit:0.1 ~recv:0.3 ~disp:0.4 ()
      @ msg ~id:1 ~parent:0 ~send:0.4 ~xmit:0.6 ~recv:0.9 ~disp:1.0 ()
      @ [ deliver ~seq:0 ~time:1.0 ~cause:1 () ]
    in
    Alcotest.(check (list string)) "well-formed" []
      (Trace.Causal.validate events);
    let r = Trace.Causal.analyze events in
    Alcotest.(check int) "messages" 2 r.Trace.Causal.r_messages;
    let p = the_payload r in
    Alcotest.(check int) "hops" 2 p.Trace.Causal.p_hops;
    let ph = p.Trace.Causal.p_phases in
    check_phase "pending" 0.0 ph.Trace.Causal.ph_pending;
    check_phase "compute" 0.3 ph.Trace.Causal.ph_compute;
    check_phase "transit" 0.5 ph.Trace.Causal.ph_transit;
    check_phase "queue" 0.2 ph.Trace.Causal.ph_queue;
    check_phase "crypto" 0.0 ph.Trace.Causal.ph_crypto;
    check_phase "unattributed" 0.0 p.Trace.Causal.p_unattributed;
    check_phase "coverage" 1.0 p.Trace.Causal.p_coverage;
    check_phase "min coverage" 1.0 (Trace.Causal.min_coverage r));

  Alcotest.test_case "diamond: only the trigger's chain is walked" `Quick
    (fun () ->
      (* A load-submit root fans out to two messages; the delivery's
         trigger descends from the slower branch.  The fast branch (id 1)
         must not contribute. *)
      let root =
        ev ~cat:"load" ~pid:"load" ~time:0.0 ~args:[ iarg "id" 0 ]
          Trace.Event.Instant "submit"
      in
      let events =
        [ root; enqueue ~seq:0 ~time:0.0 () ]
        @ msg ~id:1 ~parent:0 ~send:0.0 ~xmit:0.02 ~recv:0.04 ~disp:0.05 ()
        @ msg ~id:2 ~parent:0 ~send:0.0 ~xmit:0.1 ~recv:0.2 ~disp:0.3 ()
        @ msg ~id:3 ~parent:2 ~send:0.3 ~xmit:0.35 ~recv:0.45 ~disp:0.5 ()
        @ [ deliver ~seq:0 ~time:0.5 ~cause:3 () ]
      in
      Alcotest.(check (list string)) "well-formed" []
        (Trace.Causal.validate events);
      let r = Trace.Causal.analyze events in
      let p = the_payload r in
      Alcotest.(check int) "two hops (ids 3 and 2, not 1)" 2
        p.Trace.Causal.p_hops;
      let ph = p.Trace.Causal.p_phases in
      check_phase "compute" 0.15 ph.Trace.Causal.ph_compute;
      check_phase "transit" 0.2 ph.Trace.Causal.ph_transit;
      check_phase "queue" 0.15 ph.Trace.Causal.ph_queue;
      check_phase "coverage" 1.0 p.Trace.Causal.p_coverage);

  Alcotest.test_case "crypto: outermost spans only, clipped to the CPU window"
    `Quick (fun () ->
      (* msg 0's handler charges a 50 ms crypto span with a 30 ms span
         nested inside (tsig verify nesting per-share RSA checks); only
         the outer 50 ms may count against msg 1's 100 ms CPU window. *)
      let crypto t ms =
        [
          ev ~party:1 ~cat:"crypto" ~time:t Trace.Event.Span_begin "outer";
          ev ~party:1 ~cat:"crypto" ~time:t Trace.Event.Span_begin "inner";
          ev ~party:1 ~cat:"crypto" ~time:t
            ~args:[ farg "ms" 30.0; iarg "cause" 0 ]
            Trace.Event.Span_end "inner";
          ev ~party:1 ~cat:"crypto" ~time:t
            ~args:[ farg "ms" ms; iarg "cause" 0 ]
            Trace.Event.Span_end "outer";
        ]
      in
      let events =
        [ enqueue ~seq:0 ~time:0.0 () ]
        @ msg ~id:0 ~send:0.0 ~xmit:0.05 ~recv:0.1 ~disp:0.2 ()
        @ crypto 0.2 50.0
        @ msg ~id:1 ~parent:0 ~send:0.2 ~xmit:0.3 ~recv:0.4 ~disp:0.45 ()
        @ [ deliver ~seq:0 ~time:0.45 ~cause:1 () ]
      in
      let r = Trace.Causal.analyze events in
      let p = the_payload r in
      let ph = p.Trace.Causal.p_phases in
      check_phase "crypto = outer span only" 0.05 ph.Trace.Causal.ph_crypto;
      check_phase "compute = windows minus crypto" 0.1
        ph.Trace.Causal.ph_compute;
      check_phase "transit" 0.15 ph.Trace.Causal.ph_transit;
      check_phase "queue" 0.15 ph.Trace.Causal.ph_queue;
      check_phase "coverage" 1.0 p.Trace.Causal.p_coverage);

  Alcotest.test_case "pending: batch wait before the chain's first send"
    `Quick (fun () ->
      let events =
        [ enqueue ~seq:0 ~time:0.0 () ]
        @ msg ~id:0 ~send:0.2 ~xmit:0.3 ~recv:0.4 ~disp:0.5 ()
        @ [ deliver ~seq:0 ~time:0.5 ~cause:0 () ]
      in
      let r = Trace.Causal.analyze events in
      let p = the_payload r in
      let ph = p.Trace.Causal.p_phases in
      Alcotest.(check int) "hops" 1 p.Trace.Causal.p_hops;
      check_phase "pending" 0.2 ph.Trace.Causal.ph_pending;
      check_phase "compute" 0.1 ph.Trace.Causal.ph_compute;
      check_phase "transit" 0.1 ph.Trace.Causal.ph_transit;
      check_phase "queue" 0.1 ph.Trace.Causal.ph_queue;
      check_phase "coverage" 1.0 p.Trace.Causal.p_coverage);

  Alcotest.test_case "concurrent rounds: payloads attributed independently"
    `Quick (fun () ->
      let events =
        [ enqueue ~seq:0 ~time:0.0 (); enqueue ~seq:1 ~time:0.1 () ]
        @ msg ~id:0 ~send:0.0 ~xmit:0.1 ~recv:0.2 ~disp:0.3 ()
        @ msg ~id:1 ~send:0.1 ~xmit:0.15 ~recv:0.35 ~disp:0.4 ()
        @ [
            deliver ~seq:0 ~time:0.3 ~cause:0 ();
            deliver ~seq:1 ~time:0.4 ~cause:1 ();
          ]
      in
      let r = Trace.Causal.analyze events in
      match r.Trace.Causal.r_payloads with
      | [ a; b ] ->
        check_phase "payload 0 total" 0.3 a.Trace.Causal.p_total;
        check_phase "payload 0 coverage" 1.0 a.Trace.Causal.p_coverage;
        check_phase "payload 1 total" 0.3 b.Trace.Causal.p_total;
        check_phase "payload 1 transit" 0.2
          b.Trace.Causal.p_phases.Trace.Causal.ph_transit;
        check_phase "payload 1 coverage" 1.0 b.Trace.Causal.p_coverage;
        check_phase "report coverage" 1.0 r.Trace.Causal.r_coverage
      | l -> Alcotest.failf "expected 2 payloads, got %d" (List.length l));

  Alcotest.test_case "orphaned trigger: explicit zero coverage, no crash"
    `Quick (fun () ->
      let events =
        [
          enqueue ~seq:0 ~time:0.0 ();
          deliver ~seq:0 ~time:0.5 ~cause:(-1) ();
        ]
      in
      let r = Trace.Causal.analyze events in
      let p = the_payload r in
      Alcotest.(check int) "no hops" 0 p.Trace.Causal.p_hops;
      check_phase "all unattributed" 0.5 p.Trace.Causal.p_unattributed;
      check_phase "zero coverage" 0.0 p.Trace.Causal.p_coverage;
      check_phase "min coverage" 0.0 (Trace.Causal.min_coverage r));

  Alcotest.test_case "validate: orphaned edges, cycles and time inversions"
    `Quick (fun () ->
      let has_err (errs : string list) (needle : string) : bool =
        List.exists
          (fun e ->
            let nl = String.length needle and el = String.length e in
            let rec scan i =
              i + nl <= el && (String.sub e i nl = needle || scan (i + 1))
            in
            scan 0)
          errs
      in
      (* cause 7 is never emitted, and 7 >= 1 is a non-monotone edge *)
      let orphan =
        ev ~time:0.0 ~args:[ iarg "id" 1; iarg "cause" 7 ]
          Trace.Event.Flow_start "msg"
      in
      let errs = Trace.Causal.validate [ orphan ] in
      Alcotest.(check bool) "unknown cause reported" true
        (has_err errs "unknown cause 7");
      Alcotest.(check bool) "non-monotone edge reported" true
        (has_err errs "non-monotone");
      (* the same flow id emitted twice *)
      let dup =
        [
          ev ~time:0.0 ~args:[ iarg "id" 2 ] Trace.Event.Flow_start "msg";
          ev ~time:0.1 ~args:[ iarg "id" 2 ] Trace.Event.Flow_start "msg";
        ]
      in
      Alcotest.(check bool) "duplicate id reported" true
        (has_err (Trace.Causal.validate dup) "duplicate flow id 2");
      (* an arrival for an id that was never sent *)
      let ghost =
        [ ev ~time:0.0 ~args:[ iarg "id" 9 ] Trace.Event.Instant "recv" ]
      in
      Alcotest.(check bool) "ghost recv reported" true
        (has_err (Trace.Causal.validate ghost) "recv for unknown id 9");
      (* a message that departs before it is sent *)
      let inverted =
        [
          ev ~time:1.0 ~args:[ iarg "id" 3 ] Trace.Event.Flow_start "msg";
          ev ~time:0.5 ~args:[ iarg "id" 3 ] Trace.Event.Instant "xmit";
        ]
      in
      Alcotest.(check bool) "time inversion reported" true
        (has_err (Trace.Causal.validate inverted) "departs before send");
      (* a child sent while its parent was still in flight *)
      let early_child =
        msg ~id:0 ~send:0.0 ~xmit:0.2 ~recv:0.8 ~disp:1.0 ()
        @ [
            ev ~time:0.5 ~args:[ iarg "id" 4; iarg "cause" 0 ]
              Trace.Event.Flow_start "msg";
          ]
      in
      Alcotest.(check bool) "pre-dispatch child reported" true
        (has_err
           (Trace.Causal.validate early_child)
           "sent before its parent 0 was dispatched"));

  Alcotest.test_case "integration: a real run attributes >= 95%" `Quick
    (fun () ->
      let c = Util.cluster ~seed:"causal-int" () in
      let events = ref [] in
      Cluster.set_sink c (Trace.Sink.Fn (fun e -> events := e :: !events));
      let chans =
        Array.init 4 (fun i ->
          Atomic_channel.create (Cluster.runtime c i) ~pid:"ci"
            ~on_deliver:(fun ~sender:_ _ -> ignore i) ())
      in
      for k = 0 to 2 do
        Cluster.inject c 0 (fun () ->
          Atomic_channel.send chans.(0) (Printf.sprintf "m%d" k));
        Cluster.inject c 1 (fun () ->
          Atomic_channel.send chans.(1) (Printf.sprintf "n%d" k))
      done;
      ignore (Cluster.run c);
      let events = List.rev !events in
      Alcotest.(check (list string)) "causally well-formed" []
        (Trace.Causal.validate events);
      let r = Trace.Causal.analyze events in
      Alcotest.(check bool) "messages reconstructed" true
        (r.Trace.Causal.r_messages > 20);
      Alcotest.(check int) "all six payloads attributed" 6
        (List.length r.Trace.Causal.r_payloads);
      Alcotest.(check int) "no unmatched deliveries" 0
        r.Trace.Causal.r_unmatched;
      Alcotest.(check bool)
        (Printf.sprintf "worst coverage %.3f >= 0.95"
           (Trace.Causal.min_coverage r))
        true
        (Trace.Causal.min_coverage r >= 0.95));

  Alcotest.test_case "latency ledger: same seed, byte-identical" `Slow
    (fun () ->
      let ledger seed =
        Load.Ledger.to_string
          (Load.Latency.ledger
             (Load.Latency.run ~smoke:true ~rates:[ 15.0 ] ~seed ()))
      in
      let run () = ledger "det" in
      let a = run () in
      let b = run () in
      Alcotest.(check bool) "nonempty" true (String.length a > 0);
      Alcotest.(check string) "byte-identical" a b;
      let c = ledger "other" in
      Alcotest.(check bool) "seed-sensitive" true (a <> c));
]
