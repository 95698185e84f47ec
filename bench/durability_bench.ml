(* The durability layer, end to end: is it invisible to the protocol, and
   what does it take to bring a party back after a power failure?

   Every run starts with the durability check: one 48-round history at
   checkpoint interval 8, driven twice from the same seed, without and
   with the durability layer attached.  The delivery logs must match byte
   for byte, checkpoint GC must bound the resident backlog, the last
   party — power-failed at the tip with a WIPED device — must adopt a
   verified peer snapshot and catch up, and party 0's log must re-encode
   to its exact device bytes.

   A full run then times the rebuild at growing history lengths H, in
   three recovery modes:

     replay-full   no checkpoints (interval > H): the WAL holds every
                   round record, so the restart re-validates and re-feeds
                   all H rounds — cost grows with the history.
     replay-ckpt   checkpoints every 32 rounds, device intact: compaction
                   left a verified snapshot plus at most an interval-sized
                   tail, so replay cost is O(interval).
     snapshot      checkpoints on, device WIPED: nothing to replay — the
                   restart adopts a certificate-verified peer snapshot and
                   pulls the tail over the storage plane.

   The shape to check (EXPERIMENTS.md): replay-full scales linearly in H;
   the two checkpointed modes stay flat.  Written as the durability
   ledger, whose gates hold every rule above. *)

open Sintra

type history = {
  deliveries : (int * string) list;  (* party 0's delivery log *)
  backlog_peak : int;  (* party 0's resident DECIDED backlog, peak *)
  p0_dev : Store.Device.t;
  rows : Load.Ledger.row list;  (* the rebuild's measurements *)
}

(* Drive [history] one-payload rounds, inject-and-drain round-robin over
   the senders, so the round count is exact.  With [interval], every party
   runs the durability layer at that checkpoint interval and, after the
   history, the last party is power-failed (its device wiped if [wipe]),
   restarted and the recovery drained; the rebuild's rows carry
   [recovery], [history] and [interval] as parameters. *)
let drive ~(seed : string) ~(recovery : string) ~(history : int)
    ~(interval : int option) ~(wipe : bool) : history =
  let n = 4 and t = 1 in
  let cfg = Experiments.bench_cfg ~n ~t () in
  let c =
    Experiments.cluster ~seed ~topo:Sim.Topology.lan cfg
  in
  let deliveries = ref [] in
  let devs = Array.init n (fun _ -> Store.Device.mem ()) in
  let durs : Durable.t list ref array = Array.init n (fun _ -> ref []) in
  let chans : Atomic_channel.t option array = Array.make n None in
  let make_party i =
    let rt = Cluster.runtime c i in
    let ch =
      Atomic_channel.create rt ~pid:"dbench"
        ~on_deliver:(fun ~sender m ->
          if i = 0 then deliveries := (sender, m) :: !deliveries)
        ()
    in
    Option.iter
      (fun interval ->
        durs.(i) :=
          Durable.attach rt ~chan:ch ~pid:"dbench" ~dev:devs.(i) ~interval ()
          :: !(durs.(i)))
      interval;
    chans.(i) <- Some ch
  in
  for i = 0 to n - 1 do
    make_party i;
    Runtime.on_rebuild (Cluster.runtime c i) (fun () -> make_party i)
  done;
  let tip p =
    match chans.(p) with Some ch -> Atomic_channel.current_round ch | None -> 0
  in
  let backlog_peak = ref 0 in
  for k = 0 to history - 1 do
    let p = k mod n in
    Cluster.inject c p (fun () ->
      Option.iter
        (fun ch -> Atomic_channel.send ch (Printf.sprintf "p%d.m%d" p k))
        chans.(p));
    ignore (Cluster.run c);
    Option.iter
      (fun ch ->
        backlog_peak := max !backlog_peak (Atomic_channel.backlog_rounds ch))
      chans.(0)
  done;
  let rows =
    match interval with
    | None -> []
    | Some interval ->
      let victim = n - 1 in
      let log_bytes = Store.Device.size devs.(victim) in
      let t0 = Unix.gettimeofday () in
      Runtime.crash (Cluster.runtime c victim);
      if wipe then Store.Device.rewrite devs.(victim) "";
      Runtime.recover (Cluster.runtime c victim);
      let events = Cluster.run c in
      let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      (* The newest controller is the rebuilt one; if the party was never
         rebuilt its original adopted nothing, which fails the gates. *)
      let params =
        [ ("recovery", recovery); ("history", string_of_int history);
          ("interval", string_of_int interval) ]
      in
      let row = Load.Ledger.row ~params "durable" in
      (match !(durs.(victim)) with
       | [] -> []
       | d :: _ ->
         let replayed = Durable.replayed_rounds d in
         [ row "rebuild_ms" "ms" ms;
           row "rebuild_events" "events" (float_of_int events);
           row "log_bytes" "bytes" (float_of_int log_bytes);
           row "replayed_rounds" "rounds" (float_of_int replayed);
           row "replayed_fraction" "ratio"
             (float_of_int replayed /. float_of_int history);
           row "snapshots_adopted" "snapshots"
             (float_of_int (Durable.snapshots_adopted d));
           row "restored_from" "round" (float_of_int (Durable.restored_from d));
           row "final_lag_rounds" "rounds" (float_of_int (tip 0 - tip victim)) ])
  in
  { deliveries = List.rev !deliveries; backlog_peak = !backlog_peak;
    p0_dev = devs.(0); rows }

(* The with/without-durability comparison at 48 rounds, interval 8. *)
let check () : Load.Ledger.row list =
  let history = 48 and interval = 8 in
  let seed = "bench-durability|check" in
  let recovery = "snapshot" in
  let plain = drive ~seed ~recovery ~history ~interval:None ~wipe:false in
  let durable =
    drive ~seed ~recovery ~history ~interval:(Some interval) ~wipe:true
  in
  let rp = Store.Log.replay durable.p0_dev in
  let reencoded =
    rp.Store.Log.status = Store.Log.Complete
    && String.concat "" (List.map Store.Log.frame rp.Store.Log.records)
       = Store.Device.contents durable.p0_dev
  in
  let flag b = if b then 1.0 else 0.0 in
  let params =
    [ ("history", string_of_int history); ("interval", string_of_int interval) ]
  in
  let row = Load.Ledger.row ~params "durable" in
  Printf.printf
    "  check: %d rounds, interval %d: logs %s, backlog peak %d, log \
     re-encoding %s\n"
    history interval
    (if plain.deliveries = durable.deliveries then "identical" else "DIVERGED")
    durable.backlog_peak
    (if reencoded then "exact" else "DIFFERS");
  [ row "delivery_log_identical" "bool"
      (flag (plain.deliveries = durable.deliveries));
    row "backlog_rounds_peak" "rounds" (float_of_int durable.backlog_peak);
    row "log_reencode_identical" "bool" (flag reencoded) ]
  @ durable.rows

let run ~(quick : bool) () : unit =
  print_endline "=== Durability: invisible to the protocol, rebuild at the tip ===";
  let check_rows = check () in
  (* H must exceed the interval: at H <= interval the GC floor is still 0,
     peers retain the whole history, and a wiped restart is (correctly)
     served plain DECIDED catch-up rather than a snapshot. *)
  let ladder =
    if quick then []
    else
      List.concat_map
        (fun history ->
          List.concat_map
            (fun (recovery, interval, wipe) ->
              let h =
                drive ~seed:("bench-durability|" ^ recovery) ~recovery
                  ~history ~interval:(Some interval) ~wipe
              in
              Printf.printf "  %-12s H=%-5d %s\n%!" recovery history
                (String.concat "  "
                   (List.map
                      (fun (r : Load.Ledger.row) ->
                        r.Load.Ledger.name ^ " " ^ Load.Ledger.num r.Load.Ledger.value)
                      h.rows));
              h.rows)
            [ ("replay-full", history + 1, false); ("replay-ckpt", 32, false);
              ("snapshot", 32, true) ])
        [ 256; 512; 1024 ]
  in
  let l =
    Load.Ledger.make ~bench:"durability" ~full:(not quick) (check_rows @ ladder)
  in
  Printf.printf "wrote %s\n\n" (Load.Ledger.write l)
