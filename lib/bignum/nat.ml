(* Arbitrary-precision natural numbers.

   Representation: little-endian array of limbs in base 2^31, normalized so
   that the most significant limb is non-zero; zero is the empty array.
   Base 2^31 is chosen so that a limb product plus two limb-sized carries
   fits in OCaml's 63-bit native [int] without overflow. *)

let limb_bits = 31
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  normalize
    [| x land limb_mask; (x lsr limb_bits) land limb_mask; x lsr (2 * limb_bits) |]

let to_int_opt (a : t) : int option =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl limb_bits))
  | 3 when a.(2) < 1 lsl (62 - 2 * limb_bits) ->
    Some (a.(0) lor (a.(1) lsl limb_bits) lor (a.(2) lsl (2 * limb_bits)))
  | _ -> None

let one = of_int 1
let two = of_int 2

let num_limbs = Array.length

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i = if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

(* Number of significant bits; 0 for zero. *)
let numbits (a : t) : int =
  let l = Array.length a in
  if l = 0 then 0
  else
    let top = a.(l - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((l - 1) * limb_bits) + width 1

let testbit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(l) <- !carry;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: underflow";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + limb_base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: underflow";
  normalize r

let mul_limb (a : t) (m : int) : t =
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p land limb_mask;
      carry := p lsr limb_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let schoolbook_mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let cur = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- cur land limb_mask;
          carry := cur lsr limb_bits
        done;
        (* Propagate the final carry; it can ripple at most a few limbs. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let cur = r.(!k) + !carry in
          r.(!k) <- cur land limb_mask;
          carry := cur lsr limb_bits;
          incr k
        done
      end
    done;
    normalize r
  end

(* Split [a] into (low [k] limbs, rest) for Karatsuba. *)
let split_at (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let karatsuba_threshold = 32

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then schoolbook_mul a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end

let sqr a = mul a a

let shift_left (a : t) (bits : int) : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if off = 0 then Array.blit a 0 r limbs la
    else
      for i = 0 to la - 1 do
        let v = a.(i) lsl off in
        r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
        r.(i + limbs + 1) <- v lsr limb_bits
      done;
    normalize r
  end

let shift_right (a : t) (bits : int) : t =
  if is_zero a || bits = 0 then a
  else begin
    let limbs = bits / limb_bits and off = bits mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let l = la - limbs in
      let r = Array.make l 0 in
      if off = 0 then Array.blit a limbs r 0 l
      else
        for i = 0 to l - 1 do
          let hi = if i + limbs + 1 < la then a.(i + limbs + 1) else 0 in
          r.(i) <- (a.(i + limbs) lsr off) lor ((hi lsl (limb_bits - off)) land limb_mask)
        done;
      normalize r
    end
  end

(* Division: Knuth Algorithm D on normalized operands.
   Returns (quotient, remainder). *)
let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Single-limb divisor: simple long division. *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (normalize q, of_int !rem)
  end
  else begin
    (* Normalize so the divisor's top limb has its high bit set. *)
    let shift = limb_bits - (numbits b - (Array.length b - 1) * limb_bits) in
    let u = shift_left a shift and v = shift_left b shift in
    let n = Array.length v in
    let m = Array.length u - n in
    let m = if m < 0 then 0 else m in
    (* u gets an extra high limb. *)
    let u = Array.append u (Array.make (m + n + 1 - Array.length u) 0) in
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vnext = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* Estimate the quotient limb from the top two limbs of u. *)
      let top2 = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (top2 / vtop) in
      let rhat = ref (top2 mod vtop) in
      if !qhat >= limb_base then begin qhat := limb_base - 1; rhat := top2 - !qhat * vtop end;
      let continue = ref true in
      while !continue do
        (* qhat*vnext must not exceed rhat*base + u[j+n-2]; qhat < 2^31 and
           vnext < 2^31 so the product fits in 62 bits. *)
        if !rhat < limb_base
           && !qhat * vnext > (!rhat lsl limb_bits) lor (if n >= 2 then u.(j + n - 2) else 0)
        then begin decr qhat; rhat := !rhat + vtop end
        else continue := false
      done;
      (* Multiply and subtract: u[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin u.(i + j) <- d + limb_base; borrow := 1 end
        else begin u.(i + j) <- d; borrow := 0 end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* Estimate was one too large: add back. *)
        u.(j + n) <- d + limb_base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry in
          u.(i + j) <- s land limb_mask;
          carry := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry) land limb_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* Barrett reduction: for a fixed modulus m of k limbs, precompute
   mu = floor(base^(2k) / m); then for x < base^(2k),
     q = floor( floor(x / base^(k-1)) * mu / base^(k+1) )
   satisfies 0 <= x - q*m < 3m, so at most two subtractions complete the
   reduction — no per-operation division.  This is the workhorse under
   every modular exponentiation. *)
module Barrett = struct
  type ctx = {
    m : t;
    k : int;          (* limbs of m *)
    mu : t;           (* floor(base^(2k) / m) *)
  }

  let create (m : t) : ctx =
    if is_zero m then raise Division_by_zero;
    let k = num_limbs m in
    let mu = div (shift_limbs one (2 * k)) m in
    { m; k; mu }

  (* Drop the low [k] limbs (floor division by base^k). *)
  let drop_limbs (a : t) (k : int) : t =
    let la = Array.length a in
    if la <= k then zero else normalize (Array.sub a k (la - k))

  let reduce (ctx : ctx) (x : t) : t =
    if compare x ctx.m < 0 then x
    else if num_limbs x > 2 * ctx.k then rem x ctx.m   (* out of range: fall back *)
    else begin
      let q1 = drop_limbs x (ctx.k - 1) in
      let q2 = mul q1 ctx.mu in
      let q3 = drop_limbs q2 (ctx.k + 1) in
      let r = sub x (mul q3 ctx.m) in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      let r = if compare r ctx.m >= 0 then sub r ctx.m else r in
      r
    end
end

(* Bits [pos, pos + n) of [a] as an int, for n < limb_bits: one window
   digit of an exponent, read from at most two limbs. *)
let bits_at (a : t) (pos : int) (n : int) : int =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let la = Array.length a in
  let lo = if limb < la then a.(limb) lsr off else 0 in
  let hi = if limb + 1 < la then a.(limb + 1) lsl (limb_bits - off) else 0 in
  (lo lor hi) land ((1 lsl n) - 1)

(* Window width for an [ebits]-bit exponent: 4-bit fixed windows, or
   plain square-and-multiply up to 64 bits, where the 15-entry table would
   not amortize. *)
let window_bits ebits = if ebits <= 64 then 1 else 4

(* Modular exponentiation over Barrett reduction: the pre-Montgomery path,
   kept as the reference for equivalence tests and benchmarks, and the path
   for even moduli. *)
let powmod_barrett (base : t) (e : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero e then one
  else begin
    let ctx = Barrett.create m in
    let mulm a b = Barrett.reduce ctx (mul a b) in
    let base = rem base m in
    let ebits = numbits e in
    let wb = window_bits ebits in
    let tbl = Array.make (1 lsl wb) base in
    for d = 2 to (1 lsl wb) - 1 do tbl.(d) <- mulm tbl.(d - 1) base done;
    let nwin = (ebits + wb - 1) / wb in
    let r = ref tbl.(bits_at e (wb * (nwin - 1)) wb) in
    for win = nwin - 2 downto 0 do
      for _ = 1 to wb do r := mulm !r !r done;
      let d = bits_at e (wb * win) wb in
      if d <> 0 then r := mulm !r tbl.(d)
    done;
    !r
  end

(* Montgomery representation (HAC 14.32/14.36): for an odd modulus m of k
   limbs, let R = base^k.  A residue x is stored as xR mod m; the product of
   two stored residues is recovered by REDC, which replaces the division by m
   with k limb-sized multiply-accumulate sweeps, each chosen so that the low
   limb cancels.  With no quotient estimation at all it beats Barrett on
   every multiplication inside an exponentiation, which is where almost all
   of SINTRA's CPU time goes.

   The kernel works in place: inside an exponentiation every residue is a
   fixed-width k-limb buffer and one k+1-limb scratch buffer [w] takes
   every product, so the chain allocates nothing.  Each step is one limb
   product plus at most two limb carries: at most (2^31-1)^2 + 2(2^31-1)
   = 2^62 - 1, the largest non-negative OCaml [int]. *)
module Montgomery = struct
  type ctx = {
    m : t;            (* odd modulus, exactly k limbs *)
    k : int;
    m_prime : int;    (* -m^-1 mod 2^limb_bits *)
    r2 : int array;   (* R^2 mod m, k limbs wide: the full-width multiplier
                         that brings a value into the representation *)
    one_m : t;        (* R mod m = the representation of 1 *)
  }

  (* Inverse of an odd limb modulo 2^limb_bits by Hensel/Newton lifting:
     x := x(2 - m0 x) doubles the number of correct low bits each round, and
     x = m0 is already correct mod 8. *)
  let inv_limb (m0 : int) : int =
    let x = ref m0 in
    for _ = 1 to 5 do
      let t = (2 - (m0 * !x)) land limb_mask in
      x := (!x * t) land limb_mask
    done;
    !x

  (* w.(0..k) <- a * b * R^-1, which is < 2m, for a, b < m (CIOS, HAC
     14.36): per limb b_i, accumulate a * b_i, add the multiple u * m that
     cancels the low limb, and shift down one limb — multiply and reduce
     fused into one sweep with two carries.  [b] may be short; a short [a]
     (only from the single public operations) is padded first. *)
  let mul_acc (c : ctx) (w : int array) (a : int array) (b : int array) : unit =
    let k = c.k and m = c.m and mp = c.m_prime in
    let la = Array.length a and lb = Array.length b in
    let a = if la = k then a else Array.append a (Array.make (k - la) 0) in
    Array.fill w 0 (k + 1) 0;
    for i = 0 to k - 1 do
      let bi = if i < lb then b.(i) else 0 in
      let s = w.(0) + (a.(0) * bi) in
      let lo = s land limb_mask in
      let u = (lo * mp) land limb_mask in
      let c1 = ref (s lsr limb_bits) in
      let c2 = ref ((lo + (u * m.(0))) lsr limb_bits) in
      for j = 1 to k - 1 do
        let s = w.(j) + (a.(j) * bi) + !c1 in
        c1 := s lsr limb_bits;
        let s = (s land limb_mask) + (u * m.(j)) + !c2 in
        c2 := s lsr limb_bits;
        w.(j - 1) <- s land limb_mask
      done;
      let s = w.(k) + !c1 + !c2 in
      w.(k - 1) <- s land limb_mask;
      w.(k) <- s lsr limb_bits
    done

  (* dst.(0..k-1) <- w.(0..k) mod m, given that value is < 2m: one
     conditional subtract.  dst may be w itself (reads never trail writes). *)
  let finish (c : ctx) (w : int array) (dst : int array) : unit =
    let k = c.k and m = c.m in
    let i = ref (k - 1) in
    while !i >= 0 && w.(!i) = m.(!i) do decr i done;
    if w.(k) <> 0 || !i < 0 || w.(!i) > m.(!i) then begin
      let borrow = ref 0 in
      for j = 0 to k - 1 do
        let d = w.(j) - m.(j) + !borrow in
        dst.(j) <- d land limb_mask;
        borrow := d asr limb_bits
      done
    end
    else Array.blit w 0 dst 0 k

  (* [dst] may alias [a] or [b]: the product lands in [w] first. *)
  let mul_into c w dst a b = mul_acc c w a b; finish c w dst
  let sqr_into c w dst a = mul_into c w dst a a

  let scratch (c : ctx) : int array = Array.make (c.k + 1) 0
  let residue (c : ctx) : int array = Array.make c.k 0

  (* The normalized value of the low [n] limbs of [a]: the one fresh
     array on every exit from the kernel. *)
  let to_nat (a : int array) (n : int) : t =
    let n = ref n in
    while !n > 0 && a.(!n - 1) = 0 do decr n done;
    Array.sub a 0 !n

  let create (m : t) : ctx =
    if is_zero m then raise Division_by_zero;
    if not (testbit m 0) then invalid_arg "Nat.Montgomery.create: even modulus";
    let k = num_limbs m in
    let r2 = rem (shift_limbs one (2 * k)) m in
    let r2 = Array.append r2 (Array.make (k - num_limbs r2) 0) in
    let c = { m; k; m_prime = (limb_base - inv_limb m.(0)) land limb_mask; r2; one_m = zero } in
    let w = scratch c in
    mul_into c w w r2 one;
    { c with one_m = to_nat w k }

  (* Public single operations: one scratch buffer plus the result. *)
  let run (c : ctx) (f : int array -> unit) : t =
    let w = scratch c in
    f w;
    to_nat w c.k

  (* [to_mont ctx x] requires x < m (callers reduce first). *)
  let to_mont (c : ctx) (x : t) : t = run c (fun w -> mul_into c w w c.r2 x)
  let of_mont (c : ctx) (x : t) : t = run c (fun w -> mul_into c w w x one)
  let mul (c : ctx) (a : t) (b : t) : t = run c (fun w -> mul_into c w w a b)
  let sqr (c : ctx) (a : t) : t = run c (fun w -> sqr_into c w w a)
  let one_m (c : ctx) : t = c.one_m

  let is_unit_modulus (c : ctx) : bool = c.k = 1 && c.m.(0) = 1

  (* A fresh fixed-width residue for [x] reduced mod m. *)
  let enter (c : ctx) (w : int array) (x : t) : int array =
    let x = if compare x c.m < 0 then x else rem x c.m in
    let r = residue c in
    mul_into c w r c.r2 x;
    r

  let leave (c : ctx) (w : int array) (r : int array) : t =
    mul_into c w w r one;
    to_nat w c.k

  (* The chain starts from the top digit's table entry, not from 1. *)
  let powmod (c : ctx) (base : t) (e : t) : t =
    if is_unit_modulus c then zero
    else if is_zero e then one
    else begin
      let w = scratch c in
      let ebits = numbits e in
      let wb = window_bits ebits in
      (* tbl.(d) = base^d; entry 0 is never read. *)
      let tbl = Array.make (1 lsl wb) (enter c w base) in
      for d = 2 to (1 lsl wb) - 1 do
        let x = residue c in
        mul_into c w x tbl.(d - 1) tbl.(1);
        tbl.(d) <- x
      done;
      let nwin = (ebits + wb - 1) / wb in
      let r = Array.copy tbl.(bits_at e (wb * (nwin - 1)) wb) in
      for win = nwin - 2 downto 0 do
        for _ = 1 to wb do sqr_into c w r r done;
        let d = bits_at e (wb * win) wb in
        if d <> 0 then mul_into c w r r tbl.(d)
      done;
      leave c w r
    end

  (* tbl.((i lsl 2) lor j) = b1^i * b2^j for 2-bit digits i, j (entry 0 is
     never read); without [b2] only the single-base row 4, 8, 12. *)
  let pair_table (c : ctx) (w : int array) (b1 : int array) (b2 : int array option) =
    let tbl = Array.make 16 b1 in
    let powers step b =
      let b2 = residue c and b3 = residue c in
      sqr_into c w b2 b;
      mul_into c w b3 b2 b;
      tbl.(step) <- b;
      tbl.(2 * step) <- b2;
      tbl.(3 * step) <- b3
    in
    powers 4 b1;
    (match b2 with
     | None -> ()
     | Some b2 ->
       powers 1 b2;
       for i = 1 to 3 do
         for j = 1 to 3 do
           let x = residue c in
           mul_into c w x tbl.(i lsl 2) tbl.(j);
           tbl.((i lsl 2) lor j) <- x
         done
       done);
    tbl

  (* k-way simultaneous exponentiation: the bases paired into blocks of
     two, each block with its 16-entry digit-pair table, and all blocks
     sharing one squaring chain over the longest exponent.  With k = 2
     this is Shamir's trick (HAC 14.88) with 2-bit interleaved windows. *)
  let powmod_multi (c : ctx) (pairs : (t * t) list) : t =
    if is_unit_modulus c then zero
    else
      match List.filter (fun (_, e) -> not (is_zero e)) pairs with
      | [] -> one
      | [ (b, e) ] -> powmod c b e
      | pairs ->
        let w = scratch c in
        let pairs = Array.of_list pairs in
        let k = Array.length pairs in
        let nblocks = (k + 1) / 2 in
        let tbls =
          Array.init nblocks (fun blk ->
            let b1 = enter c w (fst pairs.(2 * blk)) in
            let b2 =
              if (2 * blk) + 1 < k then Some (enter c w (fst pairs.((2 * blk) + 1)))
              else None
            in
            pair_table c w b1 b2)
        in
        let nbits = Array.fold_left (fun acc (_, e) -> max acc (numbits e)) 0 pairs in
        let r = residue c in
        Array.blit c.one_m 0 r 0 (Array.length c.one_m);
        for win = ((nbits + 1) / 2) - 1 downto 0 do
          sqr_into c w r r;
          sqr_into c w r r;
          for blk = 0 to nblocks - 1 do
            let d1 = bits_at (snd pairs.(2 * blk)) (2 * win) 2 in
            let d2 =
              if (2 * blk) + 1 < k then bits_at (snd pairs.((2 * blk) + 1)) (2 * win) 2
              else 0
            in
            let d = (d1 lsl 2) lor d2 in
            if d <> 0 then mul_into c w r r tbls.(blk).(d)
          done
        done;
        leave c w r
end

(* The one-shot forms build the modulus's context per call: Montgomery for
   odd moduli, Barrett for even ones (only test vectors — every group and
   RSA modulus in SINTRA is odd).  Long-lived moduli keep their
   [Montgomery.ctx] in the key record instead. *)
let powmod_multi (pairs : (t * t) list) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if testbit m 0 then Montgomery.powmod_multi (Montgomery.create m) pairs
  else
    List.fold_left (fun acc (b, e) -> rem (mul acc (powmod_barrett b e m)) m) one pairs

let powmod (base : t) (e : t) (m : t) : t =
  if is_zero m then raise Division_by_zero;
  if testbit m 0 then Montgomery.powmod (Montgomery.create m) base e
  else powmod_barrett base e m

let powmod2 (b1 : t) (e1 : t) (b2 : t) (e2 : t) (m : t) : t =
  powmod_multi [ (b1, e1); (b2, e2) ] m

(* Fixed-base precomputation (BGMW/HAC 14.109 with full per-block tables):
   for a base reused across many exponentiations — the group generator, a
   party's public verification key — precompute base^(d * 16^i) for every
   4-bit digit position i below [max_bits] and every digit d in 1..15.  An
   exponentiation then multiplies one table entry per non-zero digit: no
   squarings at all, ~max_bits/4 multiplies instead of ~1.5 * max_bits, a
   ~6x reduction once the table is amortized.  Entries are fixed-width
   Montgomery residues; an even modulus gets no table and every power
   takes {!powmod_barrett}. *)
module Fixed_base = struct
  let window = 4

  type ctx = {
    base : t;           (* original base, for the fallbacks *)
    modulus : t;
    max_bits : int;
    mont : Montgomery.ctx option;  (* None for an even modulus *)
    tbl : int array array array;   (* tbl.(i).(d-1) = base^(d * 16^i) *)
  }

  let create ~(base : t) ~(modulus : t) ~(max_bits : int) : ctx =
    if is_zero modulus then raise Division_by_zero;
    if max_bits <= 0 then invalid_arg "Nat.Fixed_base.create: max_bits must be positive";
    if not (testbit modulus 0) then { base; modulus; max_bits; mont = None; tbl = [||] }
    else begin
      let c = Montgomery.create modulus in
      let w = Montgomery.scratch c in
      let nblocks = (max_bits + window - 1) / window in
      let cur = ref (Montgomery.enter c w base) in
      let tbl =
        Array.init nblocks (fun i ->
          let row = Array.make 15 !cur in
          for d = 1 to 14 do
            let x = Montgomery.residue c in
            Montgomery.mul_into c w x row.(d - 1) !cur;
            row.(d) <- x
          done;
          (* base^(16^(i+1)) = base^(15 * 16^i) * base^(16^i) *)
          if i < nblocks - 1 then begin
            let x = Montgomery.residue c in
            Montgomery.mul_into c w x row.(14) !cur;
            cur := x
          end;
          row)
      in
      { base; modulus; max_bits; mont = Some c; tbl }
    end

  let max_bits (ctx : ctx) : int = ctx.max_bits

  let pow (ctx : ctx) (e : t) : t =
    match ctx.mont with
    | None -> powmod_barrett ctx.base e ctx.modulus
    | Some c ->
      if Montgomery.is_unit_modulus c then zero
      else if is_zero e then one
      else if numbits e > ctx.max_bits then Montgomery.powmod c ctx.base e
      else begin
        let w = Montgomery.scratch c in
        let r = Montgomery.residue c in
        let started = ref false in
        for i = 0 to Array.length ctx.tbl - 1 do
          let d = bits_at e (window * i) window in
          if d <> 0 then begin
            let entry = ctx.tbl.(i).(d - 1) in
            if !started then Montgomery.mul_into c w r r entry
            else begin
              Array.blit entry 0 r 0 c.k;
              started := true
            end
          end
        done;
        Montgomery.leave c w r
      end
end

(* Byte-string codecs, big-endian, straight between bytes and limbs: one
   pass with a bit accumulator of fewer than 39 bits. *)
let of_bytes_be (s : string) : t =
  let n = String.length s in
  let start = ref 0 in
  while !start < n && s.[!start] = '\000' do incr start done;
  if !start = n then zero
  else begin
    let top = Char.code s.[!start] in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    let bits = (8 * (n - !start - 1)) + width top in
    let r = Array.make ((bits + limb_bits - 1) / limb_bits) 0 in
    let acc = ref 0 and nacc = ref 0 and li = ref 0 in
    for i = n - 1 downto !start do
      acc := !acc lor (Char.code s.[i] lsl !nacc);
      nacc := !nacc + 8;
      if !nacc >= limb_bits then begin
        r.(!li) <- !acc land limb_mask;
        incr li;
        acc := !acc lsr limb_bits;
        nacc := !nacc - limb_bits
      end
    done;
    if !li < Array.length r then r.(!li) <- !acc;
    r
  end

let to_bytes_be ?len (a : t) : string =
  let nbytes = max 1 ((numbits a + 7) / 8) in
  let out_len = match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  let acc = ref 0 and nacc = ref 0 and pos = ref (out_len - 1) in
  for i = 0 to Array.length a - 1 do
    acc := !acc lor (a.(i) lsl !nacc);
    nacc := !nacc + limb_bits;
    while !nacc >= 8 && !pos >= 0 do
      Bytes.set b !pos (Char.chr (!acc land 0xff));
      decr pos;
      acc := !acc lsr 8;
      nacc := !nacc - 8
    done
  done;
  if !pos >= 0 then Bytes.set b !pos (Char.chr (!acc land 0xff));
  Bytes.unsafe_to_string b

let of_hex (s : string) : t =
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code '0'))
      | 'a' .. 'f' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code 'a' + 10))
      | 'A' .. 'F' -> r := add (shift_left !r 4) (of_int (Char.code c - Char.code 'A' + 10))
      | ' ' | '\n' | '\t' | '_' -> ()
      | _ -> invalid_arg "Nat.of_hex")
    s;
  !r

let to_hex (a : t) : string =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let nb = numbits a in
    let ndigits = (nb + 3) / 4 in
    for i = ndigits - 1 downto 0 do
      let d =
        ((if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[d]
    done;
    Buffer.contents buf
  end

let billion = of_int 1_000_000_000

let to_string (a : t) : string =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let rec go a =
      if not (is_zero a) then begin
        let q, r = divmod a billion in
        let r = match to_int_opt r with Some v -> v | None -> assert false in
        chunks := r :: !chunks;
        go q
      end
    in
    go a;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let of_string (s : string) : t =
  if s = "" then invalid_arg "Nat.of_string";
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add (mul_limb !r 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string")
    s;
  !r

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* Uniform random natural below [bound], given a source of random bytes. *)
let random_below ~(random_bytes : int -> string) (bound : t) : t =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound";
  let bits = numbits bound in
  let nbytes = (bits + 7) / 8 in
  let excess = (8 * nbytes) - bits in
  let rec try_draw () =
    let s = random_bytes nbytes in
    let v = shift_right (of_bytes_be s) excess in
    if compare v bound < 0 then v else try_draw ()
  in
  try_draw ()

let random_bits ~(random_bytes : int -> string) (bits : int) : t =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let excess = (8 * nbytes) - bits in
    shift_right (of_bytes_be (random_bytes nbytes)) excess
  end
