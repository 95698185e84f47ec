(** Arbitrary-precision natural numbers (unsigned).

    This is the arithmetic substrate for all of SINTRA's public-key
    cryptography (the sealed build environment has no [zarith]).  Values are
    immutable little-endian limb arrays in base 2{^31}, chosen so a limb
    product plus two carries fits OCaml's 63-bit native [int].

    Complexity notes below write [k] for the operand size in limbs and [e]
    for exponent bits.  Unless noted, operations cost the usual schoolbook
    bounds; multiplication switches to Karatsuba above a fixed limb
    threshold.

    {b Fast paths.} Modular exponentiation — the dominant cost of every
    SINTRA protocol instance — runs on one in-place {!Montgomery} kernel
    that allocates nothing inside the chain.  Key records build their
    modulus's {!Montgomery.ctx} once and call {!Montgomery.powmod},
    {!Montgomery.powmod_multi} and {!Fixed_base.pow}; {!powmod},
    {!powmod2} and {!powmod_multi} are one-shot forms that build it per
    call.  {!powmod_barrett} is the reference path, also taken by even
    moduli. *)

type t
(** A natural number.  Structurally comparable only via {!compare}/{!equal}
    (the representation is normalized, but do not rely on it). *)

val zero : t
(** The natural number 0. *)

val one : t
(** The natural number 1. *)

val two : t
(** The natural number 2. *)

val is_zero : t -> bool
(** [is_zero a] iff [a = 0].  O(1). *)

val of_int : int -> t
(** [of_int x] converts a non-negative OCaml int.
    @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt a] is [Some x] iff [a] fits in an OCaml [int]. *)

val compare : t -> t -> int
(** Total order; magnitude comparison in O(k). *)

val equal : t -> t -> bool
(** [equal a b] iff the values are equal (O(k)); use instead of [(=)]. *)

val numbits : t -> int
(** Number of significant bits; [numbits zero = 0].  O(1). *)

val num_limbs : t -> int
(** Internal limb count (for cost accounting).  O(1). *)

val testbit : t -> int -> bool
(** [testbit a i] is bit [i] (LSB = bit 0); [false] beyond the top.  O(1). *)

val add : t -> t -> t
(** Addition, O(k). *)

val sub : t -> t -> t
(** [sub a b] requires [a >= b].  O(k).
    @raise Invalid_argument on underflow. *)

val mul : t -> t -> t
(** Product: schoolbook O(k{^2}) below 32 limbs, Karatsuba
    O(k{^ 1.585}) above. *)

val mul_limb : t -> int -> t
(** [mul_limb a m] for a single limb [0 <= m < 2]{^31}.  O(k). *)

val sqr : t -> t
(** [sqr a = mul a a]. *)

val shift_left : t -> int -> t
(** [shift_left a n] is [a * 2]{^ [n]}.  O(k). *)

val shift_right : t -> int -> t
(** [shift_right a n] is [a / 2]{^ [n]} (floor).  O(k). *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)] by Knuth's Algorithm D (TAOCP 4.3.1;
    HAC 14.20).  O(k{^2}).
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
(** Quotient of {!divmod}. *)

val rem : t -> t -> t
(** Remainder of {!divmod}. *)

(** Barrett reduction for a fixed modulus: one precomputed reciprocal turns
    every reduction into two multiplications and at most two subtractions
    (HAC 14.42).  The pre-Montgomery workhorse; still used by {!powmod} for
    even moduli and exposed for callers with long-lived moduli. *)
module Barrett : sig
  type ctx
  (** Precomputed reciprocal [floor(base]{^ 2k}[ / m)] for a fixed modulus
      [m] of [k] limbs. *)

  val create : t -> ctx
  (** [create m] precomputes the reciprocal: one O(k{^2}) division.
      @raise Division_by_zero on a zero modulus. *)

  val reduce : ctx -> t -> t
  (** [reduce ctx x] is [x mod m]; two multiplications when
      [x < base]{^ 2k}, falling back to plain division beyond. *)
end

(** Montgomery representation for a fixed {e odd} modulus (HAC 14.32/14.36):
    residues are stored as [x * R mod m] with [R = base]{^ k}, and REDC
    recovers products without any quotient estimation — each of the [k]
    reduction sweeps cancels one low limb by adding a multiple of [m].
    Strictly faster than {!Barrett} per multiplication, which is why every
    odd-modulus exponentiation (all of SINTRA's groups and RSA moduli) runs
    here.  A context is immutable. *)
module Montgomery : sig
  type ctx
  (** Precomputed [-m]{^ -1}[ mod 2]{^31} and [R]{^2}[ mod m] for an odd
      modulus [m]. *)

  val create : t -> ctx
  (** [create m] for odd [m]: one O(k{^2}) division.
      @raise Invalid_argument on an even modulus.
      @raise Division_by_zero on a zero modulus. *)

  val to_mont : ctx -> t -> t
  (** [to_mont ctx x] is [x * R mod m]; requires [x < m]. *)

  val of_mont : ctx -> t -> t
  (** [of_mont ctx x] is [x * R]{^ -1}[ mod m] — inverse of {!to_mont};
      requires [x < m]. *)

  val mul : ctx -> t -> t -> t
  (** Product of two Montgomery-form residues, in Montgomery form: one
      fused multiply-and-reduce pass per limb (CIOS), no product array. *)

  val sqr : ctx -> t -> t
  (** [sqr ctx a = mul ctx a a], by the same kernel. *)

  val one_m : ctx -> t
  (** The Montgomery form of 1, i.e. [R mod m]. *)

  val powmod : ctx -> t -> t -> t
  (** [powmod ctx b e] is [b]{^ [e]}[ mod m] for any [b]: 4-bit fixed
      windows, ~1.23 multiplications per exponent bit (HAC 14.82/14.94);
      square-and-multiply up to 64 exponent bits ([e = 65537]: 16
      squarings, one multiply).  Allocates one scratch buffer, the window
      table and the result.  Semantics as {!Nat.powmod}. *)

  val powmod_multi : ctx -> (t * t) list -> t
  (** [powmod_multi ctx pairs]: {!Nat.powmod_multi} with a stored context
      (two pairs make {!Nat.powmod2}). *)
end

val powmod : t -> t -> t -> t
(** [powmod b e m] is [b]{^ [e]}[ mod m]: {!Montgomery.powmod} over a
    context built per call when [m] is odd, {!powmod_barrett} otherwise.
    [powmod b zero m = 1] for [m > 1]; [powmod b e one = 0].
    @raise Division_by_zero if [m] is zero. *)

val powmod_barrett : t -> t -> t -> t
(** Reference path: the same windows over {!Barrett} reduction, whatever
    the modulus parity.  Same results as {!powmod} always; kept for
    equivalence tests, the [bench/micro.ml] plain-vs-Montgomery comparison
    and even moduli. *)

val powmod2 : t -> t -> t -> t -> t -> t
(** [powmod2 b1 e1 b2 e2 m] is [b1]{^ [e1]}[ * b2]{^ [e2]}[ mod m] by
    simultaneous double exponentiation — Shamir's trick with 2-bit
    interleaved windows (HAC 14.88): one shared squaring chain over
    [max (numbits e1) (numbits e2)] bits and a 16-entry digit-pair table,
    i.e. ~1.5 multiplications per bit where two separate {!powmod} calls
    pay ~2.5.  This is the shape of every DLEQ / threshold-share
    verification ([g]{^ z}[ h]{^ -c}), the protocols' hottest operation.
    Exponents of differing bit-lengths are handled by the shared chain
    (the shorter exponent simply contributes zero digits at the top).
    Even [m] multiplies two {!powmod_barrett} results.
    @raise Division_by_zero if [m] is zero. *)

val powmod_multi : (t * t) list -> t -> t
(** [powmod_multi [(b1, e1); ...; (bk, ek)] m] is the k-way simultaneous
    multi-exponentiation [b1]{^ [e1]}[ * ... * bk]{^ [ek]}[ mod m],
    generalizing {!powmod2} to any number of bases: one shared squaring
    chain over the longest exponent, with the bases grouped into blocks of
    two sharing {!powmod2}-style 16-entry digit-pair tables, so each block
    adds at most one multiplication per two exponent bits to the shared
    chain.  For [k] full-width exponents this costs ~[(1 + k/2) * e/2 + e]
    multiplications where [k] separate {!powmod} calls pay ~[1.5 * k * e] —
    the shape of batched share verification and Lagrange combination over
    all [k] shares.  [powmod_multi [] m = 1 mod m]; zero exponents are
    dropped and one remaining pair takes {!powmod}.  Even [m] multiplies
    {!powmod_barrett} results.
    @raise Division_by_zero if [m] is zero. *)

(** Fixed-base precomputation (HAC 14.109 family): for a base reused across
    many exponentiations — the group generator, a party's public key —
    precompute [base]{^ d*16{^i}} for every 4-bit digit position [i] and
    digit [d].  {!Fixed_base.pow} then multiplies one table entry per
    non-zero exponent digit: {e no squarings}, ~[max_bits/4] multiplies
    versus ~[1.5 * max_bits] for a cold {!powmod} — ~6x per op once the
    O([15 * max_bits / 4])-multiply table build is amortized.  Built once
    at dealer setup and carried in [Group.t] / key records. *)
module Fixed_base : sig
  type ctx
  (** The window table for one (base, modulus, exponent-width) triple, in
      {!Montgomery} form; an even modulus gets no table and every power
      takes {!powmod_barrett}. *)

  val create : base:t -> modulus:t -> max_bits:int -> ctx
  (** [create ~base ~modulus ~max_bits] builds the table covering exponents
      of up to [max_bits] bits.
      @raise Invalid_argument if [max_bits <= 0].
      @raise Division_by_zero if [modulus] is zero. *)

  val pow : ctx -> t -> t
  (** [pow ctx e] is [base]{^ [e]}[ mod modulus].  Table-driven for
      [numbits e <= max_bits]; transparently falls back to
      {!Montgomery.powmod} for oversized exponents (correct, just not
      accelerated). *)

  val max_bits : ctx -> int
  (** The exponent-width bound the table was built for. *)
end

val of_bytes_be : string -> t
(** Big-endian bytes to natural (leading zero bytes allowed).  O(n) in
    the byte length: one pass that packs bytes straight into limbs and
    allocates only the result. *)

val to_bytes_be : ?len:int -> t -> string
(** Big-endian encoding, zero-padded to [len] when given.  O(n) in the
    output length: one pass that unpacks limbs straight into bytes.
    @raise Invalid_argument if the value does not fit in [len] bytes. *)

val of_hex : string -> t
(** Parse hexadecimal (case-insensitive; spaces and underscores skipped).
    @raise Invalid_argument on other characters. *)

val to_hex : t -> string
(** Lowercase hexadecimal, no leading zeros ("0" for zero). *)

val of_string : string -> t
(** Parse a decimal string (underscores allowed).
    @raise Invalid_argument on other characters or empty input. *)

val to_string : t -> string
(** Decimal representation. *)

val pp : Format.formatter -> t -> unit
(** Decimal printer for [%a]. *)

val random_below : random_bytes:(int -> string) -> t -> t
(** [random_below ~random_bytes bound] draws uniformly from [[0, bound)] by
    rejection sampling on the supplied byte source.
    @raise Invalid_argument on a zero bound. *)

val random_bits : random_bytes:(int -> string) -> int -> t
(** [random_bits ~random_bytes n] draws a uniform [n]-bit value (top bit not
    forced); [zero] for [n <= 0]. *)
