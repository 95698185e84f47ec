(* HMAC (RFC 2104) over SHA-1 or SHA-256.  A key absorbs its ipad and opad
   blocks once; every tag then starts from copies of those two midstates,
   so it skips the two key-block compressions of the one-shot form. *)

type algo = SHA1 | SHA256

let block_size = 64

module type HASH = sig
  type ctx
  val init : unit -> ctx
  val copy : ctx -> ctx
  val feed_string : ctx -> string -> unit
  val finish : ctx -> string
  val digest : string -> string
end

module Keyed (H : HASH) = struct
  type t = { inner : H.ctx; outer : H.ctx }   (* after ipad / opad *)

  let make (secret : string) : t =
    let secret =
      if String.length secret > block_size then H.digest secret else secret
    in
    let absorb c =
      let ctx = H.init () in
      H.feed_string ctx
        (String.init block_size (fun i ->
           let k = if i < String.length secret then Char.code secret.[i] else 0 in
           Char.chr (k lxor c)));
      ctx
    in
    { inner = absorb 0x36; outer = absorb 0x5c }

  let mac (k : t) (parts : string list) : string =
    let ctx = H.copy k.inner in
    List.iter (H.feed_string ctx) parts;
    let inner = H.finish ctx in
    let ctx = H.copy k.outer in
    H.feed_string ctx inner;
    H.finish ctx
end

module K1 = Keyed (Sha1)
module K256 = Keyed (Sha256)

type key = Sha1_key of K1.t | Sha256_key of K256.t

let key ~(algo : algo) (secret : string) : key =
  match algo with
  | SHA1 -> Sha1_key (K1.make secret)
  | SHA256 -> Sha256_key (K256.make secret)

let mac_parts (k : key) (parts : string list) : string =
  match k with
  | Sha1_key k -> K1.mac k parts
  | Sha256_key k -> K256.mac k parts

let verify_parts (k : key) ~(tag : string) (parts : string list) : bool =
  (* Constant-time comparison. *)
  let expected = mac_parts k parts in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i])) expected;
    !diff = 0
  end

let mac ~(algo : algo) ~key:(secret : string) (msg : string) : string =
  mac_parts (key ~algo secret) [ msg ]

let verify ~(algo : algo) ~key:(secret : string) ~(tag : string) (msg : string) : bool =
  verify_parts (key ~algo secret) ~tag [ msg ]
