(* The benchmark's correctness gate.  Every check raises [Failed]; main.ml
   turns that into a non-zero exit with no numbers printed. *)

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

type log = (int * string) list

let digest (log : log) : string =
  let ctx = Hashes.Sha256.init () in
  List.iter
    (fun (sender, payload) ->
      Hashes.Sha256.feed_string ctx
        (Wire.encode (fun e ->
           Wire.Enc.int e sender;
           Wire.Enc.bytes e payload)))
    log;
  Hashes.Sha256.hex_of_digest (Hashes.Sha256.finish ctx)

let identical (logs : (int * log) list) : unit =
  match logs with
  | [] -> ()
  | (p0, l0) :: rest ->
    let d0 = digest l0 in
    List.iter
      (fun (p, l) ->
        if digest l <> d0 then
          fail "parties %d and %d delivered different sequences (%d vs %d \
                deliveries)"
            p0 p (List.length l0) (List.length l))
      rest

(* [log] must equal reference.(k), reference.(k+1), ... for some k. *)
let contiguous_slice ~(what : string) ~(reference : log) (log : log) : unit =
  match log with
  | [] -> ()
  | first :: _ ->
    let refa = Array.of_list reference in
    let n = Array.length refa in
    let start =
      let rec find i =
        if i >= n then fail "%s: delivery %S is not in the reference sequence"
            what (snd first)
        else if refa.(i) = first then i
        else find (i + 1)
      in
      find 0
    in
    List.iteri
      (fun j entry ->
        let i = start + j in
        if i >= n || refa.(i) <> entry then
          fail "%s: delivery %d breaks the contiguous slice starting at \
                reference position %d"
            what j start)
      log

(* [log] must follow the reference order in contiguous runs: each entry is
   the reference entry right after the previous one, except where
   [jumps] (the restarted party's count of adopted peer snapshots, sampled
   at each delivery) grew — snapshot state transfer legitimately skips
   history, but only forward. *)
let slices_across_snapshots ~(what : string) ~(reference : log) (log : (log * int list)) : unit =
  let entries, jumps = log in
  if List.length entries <> List.length jumps then
    fail "%s: %d deliveries but %d adoption marks" what (List.length entries)
      (List.length jumps);
  let pos = Hashtbl.create (List.length reference) in
  List.iteri (fun i e -> if not (Hashtbl.mem pos e) then Hashtbl.add pos e i) reference;
  ignore
    (List.fold_left2
       (fun (k, prev, prev_jumps) entry j ->
         let i =
           match Hashtbl.find_opt pos entry with
           | Some i -> i
           | None -> fail "%s: delivery %d (%S) is not in the reference sequence" what k (snd entry)
         in
         (match prev with
          | Some p when j = prev_jumps && i <> p + 1 ->
            fail "%s: delivery %d is at reference position %d, expected %d (no snapshot                   adopted in between)"
              what k i (p + 1)
          | Some p when i <= p ->
            fail "%s: delivery %d moves back to reference position %d after %d" what k i p
          | _ -> ());
         (k + 1, Some i, j))
       (0, None, 0) entries jumps)

(* Issued requests not delivered exactly once in [log]. *)
let not_exactly_once ~(issued : string list) (log : log) : int =
  let seen = Hashtbl.create (List.length log) in
  List.iter
    (fun (_, p) ->
      Hashtbl.replace seen p (1 + Option.value ~default:0 (Hashtbl.find_opt seen p)))
    log;
  List.fold_left
    (fun bad p -> if Hashtbl.find_opt seen p = Some 1 then bad else bad + 1)
    0 issued

let exactly_once ~(issued : string list) (log : log) : unit =
  let bad = not_exactly_once ~issued log in
  if bad > 0 then
    fail "%d of %d issued requests were not delivered exactly once" bad
      (List.length issued)

let same_digest ~(what : string) (a : string) (b : string) : unit =
  if a <> b then fail "%s: delivery digests differ (%s vs %s)" what a b
