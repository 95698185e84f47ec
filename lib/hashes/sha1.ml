(* SHA-1 (FIPS 180-4) — used by SINTRA for link authentication (HMAC-SHA1)
   and as the 160-bit hash inside the threshold schemes, as in the paper.
   Words are 32-bit values kept in OCaml ints.  All state, the message
   schedule included, lives in the context: there is no module-level
   scratch, so contexts on different domains share nothing. *)

let mask = 0xFFFFFFFF

type ctx = {
  h : int array;               (* 5 state words *)
  w : int array;               (* 80-word message schedule, per block *)
  buf : Bytes.t;               (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes fed *)
}

let init () = {
  h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
  w = Array.make 80 0;
  buf = Bytes.create 64;
  buf_len = 0;
  total = 0;
}

let copy (c : ctx) : ctx = {
  h = Array.copy c.h;
  w = Array.make 80 0;
  buf = Bytes.copy c.buf;
  buf_len = c.buf_len;
  total = c.total;
}

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* The round functions; arguments are 32-bit, and so are the results. *)
let[@inline] choose b c d = (b land c) lor (lnot b land d)
let[@inline] parity b c d = b lxor c lxor d
let[@inline] majority b c d = (b land c) lor (b land d) lor (c land d)

(* Every index below is in range by construction: [w] has 80 words, [h]
   5, and callers pass [off + 64 <= String.length s]. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let compress (ctx : ctx) (s : string) (off : int) =
  let w = ctx.w in
  for i = 0 to 15 do
    set w i (Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask)
  done;
  for i = 16 to 79 do
    set w i (rotl (get w (i - 3) lxor get w (i - 8) lxor get w (i - 14) lxor get w (i - 16)) 1)
  done;
  let h = ctx.h in
  let a = ref (get h 0) and b = ref (get h 1) and c = ref (get h 2) in
  let d = ref (get h 3) and e = ref (get h 4) in
  (* Four 20-round loops, five rounds per iteration: the five words rotate
     roles from one round to the next instead of being moved, so each round
     writes only the word that plays e (the new a) and rotates the one that
     plays b. *)
  for i5 = 0 to 3 do
    let i = 5 * i5 in
    e := (!e + rotl !a 5 + choose !b !c !d + 0x5A827999 + get w i) land mask;
    b := rotl !b 30;
    d := (!d + rotl !e 5 + choose !a !b !c + 0x5A827999 + get w (i + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rotl !d 5 + choose !e !a !b + 0x5A827999 + get w (i + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rotl !c 5 + choose !d !e !a + 0x5A827999 + get w (i + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rotl !b 5 + choose !c !d !e + 0x5A827999 + get w (i + 4)) land mask;
    c := rotl !c 30;
  done;
  for i5 = 4 to 7 do
    let i = 5 * i5 in
    e := (!e + rotl !a 5 + parity !b !c !d + 0x6ED9EBA1 + get w i) land mask;
    b := rotl !b 30;
    d := (!d + rotl !e 5 + parity !a !b !c + 0x6ED9EBA1 + get w (i + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rotl !d 5 + parity !e !a !b + 0x6ED9EBA1 + get w (i + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rotl !c 5 + parity !d !e !a + 0x6ED9EBA1 + get w (i + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rotl !b 5 + parity !c !d !e + 0x6ED9EBA1 + get w (i + 4)) land mask;
    c := rotl !c 30;
  done;
  for i5 = 8 to 11 do
    let i = 5 * i5 in
    e := (!e + rotl !a 5 + majority !b !c !d + 0x8F1BBCDC + get w i) land mask;
    b := rotl !b 30;
    d := (!d + rotl !e 5 + majority !a !b !c + 0x8F1BBCDC + get w (i + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rotl !d 5 + majority !e !a !b + 0x8F1BBCDC + get w (i + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rotl !c 5 + majority !d !e !a + 0x8F1BBCDC + get w (i + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rotl !b 5 + majority !c !d !e + 0x8F1BBCDC + get w (i + 4)) land mask;
    c := rotl !c 30;
  done;
  for i5 = 12 to 15 do
    let i = 5 * i5 in
    e := (!e + rotl !a 5 + parity !b !c !d + 0xCA62C1D6 + get w i) land mask;
    b := rotl !b 30;
    d := (!d + rotl !e 5 + parity !a !b !c + 0xCA62C1D6 + get w (i + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rotl !d 5 + parity !e !a !b + 0xCA62C1D6 + get w (i + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rotl !c 5 + parity !d !e !a + 0xCA62C1D6 + get w (i + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rotl !b 5 + parity !c !d !e + 0xCA62C1D6 + get w (i + 4)) land mask;
    c := rotl !c 30;
  done;
  set h 0 ((get h 0 + !a) land mask);
  set h 1 ((get h 1 + !b) land mask);
  set h 2 ((get h 2 + !c) land mask);
  set h 3 ((get h 3 + !d) land mask);
  set h 4 ((get h 4 + !e) land mask)

let feed_string (ctx : ctx) (s : string) =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed straight from [s]. *)
  while n - !pos >= 64 do
    compress ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finish (ctx : ctx) : string =
  (* Pad in place: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let buf = ctx.buf and len = ctx.buf_len in
  Bytes.set buf len '\x80';
  if len >= 56 then begin
    Bytes.fill buf (len + 1) (63 - len) '\000';
    compress ctx (Bytes.unsafe_to_string buf) 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (len + 1) (55 - len) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx (Bytes.unsafe_to_string buf) 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 20 in
  for i = 0 to 4 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finish ctx
