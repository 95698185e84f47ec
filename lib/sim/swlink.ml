(* A sliding-window reliable FIFO link with authenticated acknowledgments.

   The paper (Section 3) notes that SINTRA's TCP links are "subject to a
   denial-of-service attack by sending forged TCP acknowledgements" and
   plans to replace TCP with "SINTRA's own sliding-window implementation,
   which will provide authenticated acknowledgments".  This module is that
   implementation: a go-back-free selective-repeat protocol over lossy,
   reordering datagrams, in which both DATA and ACK frames carry HMACs
   under the pair key — a spoofed acknowledgement is simply dropped, so an
   attacker without the key can neither advance nor stall the window.

   One [endpoint] holds both directions' state for one side of a pair; feed
   incoming datagrams to {!on_datagram}, outgoing datagrams leave through
   the [out] callback (which may lose, delay or reorder them). *)

type endpoint = {
  engine : Engine.t;
  mac_key : Hashes.Hmac.key;           (* the pair key, prepared once *)
  window : int;
  rto : float;                         (* retransmission timeout, seconds *)
  out : string -> unit;
  deliver : string -> unit;
  (* sender state *)
  mutable snd_next : int;              (* next sequence number to assign *)
  mutable snd_una : int;               (* oldest unacknowledged *)
  unacked : (int, string) Hashtbl.t;   (* seq -> payload *)
  backlog : string Queue.t;            (* waiting for window space *)
  mutable retransmit_armed : bool;
  (* receiver state *)
  mutable rcv_next : int;              (* next in-order sequence expected *)
  out_of_order : (int, string) Hashtbl.t;
  (* statistics *)
  mutable sent_frames : int;
  mutable retransmissions : int;
  mutable rejected_frames : int;       (* bad MAC / malformed *)
  mutable duplicate_frames : int;
}

let tag_data = 0
let tag_ack = 1

let create ~(engine : Engine.t) ~(mac_key : string) ?(window = 32) ?(rto = 0.5)
    ~(out : string -> unit) ~(deliver : string -> unit) () : endpoint =
  {
    engine; window; rto; out; deliver;
    mac_key = Hashes.Hmac.key ~algo:Hashes.Hmac.SHA1 mac_key;
    snd_next = 0;
    snd_una = 0;
    unacked = Hashtbl.create 64;
    backlog = Queue.create ();
    retransmit_armed = false;
    rcv_next = 0;
    out_of_order = Hashtbl.create 64;
    sent_frames = 0;
    retransmissions = 0;
    rejected_frames = 0;
    duplicate_frames = 0;
  }

(* Frame MACs cover the NUL-joined fields: "data\x00<seq>\x00<payload>" and
   "ack\x00<cumulative>". *)
let data_parts ~(seq : int) (payload : string) : string list =
  [ "data"; "\x00"; string_of_int seq; "\x00"; payload ]

let ack_parts ~(cumulative : int) : string list =
  [ "ack"; "\x00"; string_of_int cumulative ]

let encode_data (ep : endpoint) ~(seq : int) (payload : string) : string =
  Wire.encode (fun b ->
    Wire.Enc.u8 b tag_data;
    Wire.Enc.int b seq;
    Wire.Enc.bytes b payload;
    Wire.Enc.bytes b (Hashes.Hmac.mac_parts ep.mac_key (data_parts ~seq payload)))

let encode_ack (ep : endpoint) ~(cumulative : int) : string =
  Wire.encode (fun b ->
    Wire.Enc.u8 b tag_ack;
    Wire.Enc.int b cumulative;
    Wire.Enc.bytes b (Hashes.Hmac.mac_parts ep.mac_key (ack_parts ~cumulative)))

let rec arm_retransmit (ep : endpoint) : unit =
  if not ep.retransmit_armed && Hashtbl.length ep.unacked > 0 then begin
    ep.retransmit_armed <- true;
    Engine.schedule ep.engine ~delay:ep.rto (fun () ->
      ep.retransmit_armed <- false;
      if Hashtbl.length ep.unacked > 0 then begin
        (* Selective repeat: re-send every outstanding frame, in sequence
           order so retransmission traces replay deterministically. *)
        Det.iter ep.unacked ~compare:Det.by_int
          (fun seq payload ->
            ep.retransmissions <- ep.retransmissions + 1;
            ep.out (encode_data ep ~seq payload));
        arm_retransmit ep
      end)
  end

let rec pump (ep : endpoint) : unit =
  if ep.snd_next < ep.snd_una + ep.window && not (Queue.is_empty ep.backlog) then begin
    let payload = Queue.pop ep.backlog in
    let seq = ep.snd_next in
    ep.snd_next <- seq + 1;
    Hashtbl.replace ep.unacked seq payload;
    ep.sent_frames <- ep.sent_frames + 1;
    ep.out (encode_data ep ~seq payload);
    arm_retransmit ep;
    pump ep
  end

(* Queue a payload for reliable in-order delivery at the peer. *)
let send (ep : endpoint) (payload : string) : unit =
  Queue.push payload ep.backlog;
  pump ep

let handle_data (ep : endpoint) ~(seq : int) (payload : string) : unit =
  (* Always (re-)acknowledge our cumulative progress: the ACK itself may
     have been lost. *)
  if seq < ep.rcv_next then begin
    ep.duplicate_frames <- ep.duplicate_frames + 1;
    ep.out (encode_ack ep ~cumulative:ep.rcv_next)
  end
  else begin
    if not (Hashtbl.mem ep.out_of_order seq) then Hashtbl.replace ep.out_of_order seq payload
    else ep.duplicate_frames <- ep.duplicate_frames + 1;
    (* Deliver any consecutive run that is now complete. *)
    let rec deliver_run () =
      match Hashtbl.find_opt ep.out_of_order ep.rcv_next with
      | None -> ()
      | Some p ->
        Hashtbl.remove ep.out_of_order ep.rcv_next;
        ep.rcv_next <- ep.rcv_next + 1;
        ep.deliver p;
        deliver_run ()
    in
    deliver_run ();
    ep.out (encode_ack ep ~cumulative:ep.rcv_next)
  end

let handle_ack (ep : endpoint) ~(cumulative : int) : unit =
  if cumulative > ep.snd_una && cumulative <= ep.snd_next then begin
    for seq = ep.snd_una to cumulative - 1 do
      Hashtbl.remove ep.unacked seq
    done;
    ep.snd_una <- cumulative;
    pump ep
  end

(* Feed one incoming datagram (possibly lost-order, duplicated, forged). *)
let on_datagram (ep : endpoint) (frame : string) : unit =
  match
    Wire.decode frame (fun d ->
      match Wire.Dec.u8 d with
      | 0 ->
        let seq = Wire.Dec.int d in
        let payload = Wire.Dec.bytes d in
        let tag = Wire.Dec.bytes d in
        `Data (seq, payload, tag)
      | 1 ->
        let cumulative = Wire.Dec.int d in
        let tag = Wire.Dec.bytes d in
        `Ack (cumulative, tag)
      | t -> Wire.fail "Swlink: bad frame tag %d" t)
  with
  | None -> ep.rejected_frames <- ep.rejected_frames + 1
  | Some (`Data (seq, payload, tag)) ->
    if Hashes.Hmac.verify_parts ep.mac_key ~tag (data_parts ~seq payload) && seq >= 0 then
      handle_data ep ~seq payload
    else ep.rejected_frames <- ep.rejected_frames + 1
  | Some (`Ack (cumulative, tag)) ->
    if Hashes.Hmac.verify_parts ep.mac_key ~tag (ack_parts ~cumulative) then
      handle_ack ep ~cumulative
    else ep.rejected_frames <- ep.rejected_frames + 1

let in_flight (ep : endpoint) = Hashtbl.length ep.unacked
let backlog_length (ep : endpoint) = Queue.length ep.backlog
let retransmissions (ep : endpoint) = ep.retransmissions
let rejected_frames (ep : endpoint) = ep.rejected_frames
let duplicate_frames (ep : endpoint) = ep.duplicate_frames
