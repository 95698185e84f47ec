(* A deterministic random byte generator built from SHA-256 in counter mode
   (a simplified Hash_DRBG).  Every piece of randomness in this repository —
   the dealer's key generation, the simulator's jitter, fault injection,
   property-test corpora — flows through a seeded DRBG so that every run is
   reproducible. *)

type t = {
  mutable key : string;    (* 32-byte state *)
  mutable counter : int;
  mutable pool : string;   (* unread bytes from the current block *)
  mutable pool_pos : int;
}

let create ~(seed : string) : t =
  { key = Sha256.digest ("sintra-drbg-v1|" ^ seed); counter = 0; pool = ""; pool_pos = 0 }

let of_int_seed (n : int) : t = create ~seed:(string_of_int n)

let reseed (t : t) (extra : string) =
  t.key <- Sha256.digest_list [ t.key; "|reseed|"; extra ];
  t.counter <- 0;
  t.pool <- "";
  t.pool_pos <- 0

let next_block (t : t) : string =
  let b = Sha256.digest_list [ t.key; "|"; string_of_int t.counter ] in
  t.counter <- t.counter + 1;
  b

let bytes (t : t) (n : int) : string =
  let out = Buffer.create n in
  let remaining = ref n in
  while !remaining > 0 do
    if t.pool_pos >= String.length t.pool then begin
      t.pool <- next_block t;
      t.pool_pos <- 0
    end;
    let take = min !remaining (String.length t.pool - t.pool_pos) in
    Buffer.add_substring out t.pool t.pool_pos take;
    t.pool_pos <- t.pool_pos + take;
    remaining := !remaining - take
  done;
  Buffer.contents out

(* The next byte of the stream, refilling the pool as needed. *)
let byte (t : t) : int =
  if t.pool_pos >= String.length t.pool then begin
    t.pool <- next_block t;
    t.pool_pos <- 0
  end;
  let c = Char.code (String.unsafe_get t.pool t.pool_pos) in
  t.pool_pos <- t.pool_pos + 1;
  c

(* Uniform int in [0, bound) by rejection sampling on 62-bit draws: eight
   stream bytes read big-endian, decoded straight from the pool. *)
let int (t : t) (bound : int) : int =
  if bound <= 0 then invalid_arg "Drbg.int: non-positive bound";
  let limit = max_int - (max_int mod bound) in
  let rec go () =
    let v = ref 0 in
    for _ = 1 to 8 do
      v := ((!v lsl 8) lor byte t) land max_int
    done;
    if !v < limit then !v mod bound else go ()
  in
  go ()

let float (t : t) (bound : float) : float =
  let v = int t (1 lsl 53) in
  bound *. (Stdlib.float_of_int v /. Stdlib.float_of_int (1 lsl 53))

let bool (t : t) : bool = int t 2 = 1

(* Derive an independent child generator; used to give each simulated
   component its own stream without cross-talk. *)
let fork (t : t) (label : string) : t =
  create ~seed:(Sha256.hex_of_digest t.key ^ "|fork|" ^ label)

let random_bytes (t : t) : int -> string = fun n -> bytes t n
