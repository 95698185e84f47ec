(* Staged statements: one (ctx, statement) pair's framed digest and FDH
   stage, kept per party so that every share, certificate and cache key on
   the statement reuses them.  Host-side only: no virtual time is charged
   here and no verdict depends on whether a statement is staged.

   The table mirrors Share_cache's discipline: groups (the ctx, i.e. the
   owning instance's pid) are evicted wholesale, membership never iterates,
   and the FIFO order makes eviction a pure function of the call
   sequence.  The order queue may hold statements already evicted with
   their group; it is compacted once more than 16 of those accumulate, so
   the queue keeps few evicted statements' bytes alive. *)

type t = {
  id : int;               (* staging order in its table *)
  ctx : string;
  msg : string;
  digest : string Lazy.t;
  ph : Rsa.prehash;
}

let make ~(id : int) ~(ctx : string) (msg : string) : t =
  {
    id;
    ctx;
    msg;
    digest = lazy (Hashes.Sha256.digest_framed [ ctx; msg ]);
    ph = Rsa.prehash ~ctx msg;
  }

let ctx (s : t) : string = s.ctx
let msg (s : t) : string = s.msg
let digest (s : t) : string = Lazy.force s.digest
let prehash (s : t) : Rsa.prehash = s.ph

type table = {
  cap : int;
  groups : (string, (string, t) Hashtbl.t) Hashtbl.t;  (* ctx -> msg -> t *)
  order : t Queue.t;            (* insertion order; may hold evicted ones *)
  mutable size : int;
  mutable staged_total : int;   (* ids handed out so far *)
}

let table ~(cap : int) : table =
  if cap < 1 then invalid_arg "Statement.table: cap must be >= 1";
  { cap; groups = Hashtbl.create 64; order = Queue.create (); size = 0;
    staged_total = 0 }

let size (tbl : table) : int = tbl.size

let live (tbl : table) (s : t) : bool =
  match Hashtbl.find_opt tbl.groups s.ctx with
  | Some g -> (match Hashtbl.find_opt g s.msg with Some s' -> s'.id = s.id | None -> false)
  | None -> false

let remove (tbl : table) (s : t) : unit =
  match Hashtbl.find_opt tbl.groups s.ctx with
  | None -> ()
  | Some g ->
    Hashtbl.remove g s.msg;
    tbl.size <- tbl.size - 1;
    if Hashtbl.length g = 0 then Hashtbl.remove tbl.groups s.ctx

let rec evict_oldest (tbl : table) : unit =
  match Queue.take_opt tbl.order with
  | None -> ()
  | Some s -> if live tbl s then remove tbl s else evict_oldest tbl

(* Keep only live statements in the order queue, in order. *)
let compact (tbl : table) : unit =
  let keep = Queue.create () in
  Queue.iter (fun s -> if live tbl s then Queue.add s keep) tbl.order;
  Queue.clear tbl.order;
  Queue.transfer keep tbl.order

let stage (tbl : table) ~(ctx : string) (msg : string) : t * bool =
  let g =
    match Hashtbl.find_opt tbl.groups ctx with
    | Some g -> g
    | None ->
      let g = Hashtbl.create 8 in
      Hashtbl.replace tbl.groups ctx g;
      g
  in
  match Hashtbl.find_opt g msg with
  | Some s -> (s, true)
  | None ->
    if tbl.size >= tbl.cap then evict_oldest tbl;
    if Queue.length tbl.order > tbl.size + 16 then compact tbl;
    tbl.staged_total <- tbl.staged_total + 1;
    let s = make ~id:tbl.staged_total ~ctx msg in
    (* Eviction may have dropped [g] itself (its last statement). *)
    if not (Hashtbl.mem tbl.groups ctx) then Hashtbl.replace tbl.groups ctx g;
    Hashtbl.replace g msg s;
    Queue.add s tbl.order;
    tbl.size <- tbl.size + 1;
    (s, false)

let evict_group (tbl : table) (ctx : string) : unit =
  match Hashtbl.find_opt tbl.groups ctx with
  | None -> ()
  | Some g ->
    tbl.size <- tbl.size - Hashtbl.length g;
    Hashtbl.remove tbl.groups ctx

let clear (tbl : table) : unit =
  Hashtbl.reset tbl.groups;
  Queue.clear tbl.order;
  tbl.size <- 0
