(* Multi-signatures: the threshold-signature interface implemented by a
   vector of k ordinary RSA signatures from distinct parties (Section 2.1 of
   the paper).  No change to the protocols that use threshold signatures is
   required; this trades longer messages for much cheaper computation, which
   the paper's Figure 6 shows is the better trade in most settings. *)

type public = {
  nparties : int;
  k : int;
  t : int;
  party_keys : Rsa.public array;   (* index i-1 *)
}

type secret_share = {
  index : int;                     (* 1-based *)
  key : Rsa.secret;
}

type share = {
  origin : int;
  signature : string;
}

type keys = { public : public; shares : secret_share array }

let deal ~(drbg : Hashes.Drbg.t) ~(modulus_bits : int) ~nparties ~k ~t () : keys =
  if not (k > t && k <= nparties - t) then
    invalid_arg "Multi_sig.deal: need t < k <= n - t";
  let shares =
    Array.init nparties (fun i ->
      let child = Hashes.Drbg.fork drbg (Printf.sprintf "multisig-key-%d" (i + 1)) in
      { index = i + 1; key = Rsa.keygen ~drbg:child ~bits:modulus_bits () })
  in
  {
    public = {
      nparties; k; t;
      party_keys = Array.map (fun s -> s.key.Rsa.pub) shares;
    };
    shares;
  }

let release (pub : public) (sk : secret_share) ~(ctx : string) (msg : string) : share =
  ignore pub;
  { origin = sk.index; signature = Rsa.sign sk.key ~ctx msg }

(* Staged: applying the message first builds one FDH memo that every share
   checked by the resulting closure reuses. *)
let verify_share (pub : public) ~(ctx : string) (msg : string) : share -> bool =
  let ph = Rsa.prehash ~ctx msg in
  fun s ->
    s.origin >= 1 && s.origin <= pub.nparties
    && Rsa.verify_prehashed pub.party_keys.(s.origin - 1) ph ~signature:s.signature

(* An assembled multi-signature is the concatenation of k (origin, sig)
   pairs; a compact length-prefixed encoding. *)
let assemble (pub : public) ~(ctx : string) (msg : string) (shares : share list) : string =
  ignore ctx;
  ignore msg;
  let seen = Hashtbl.create 8 in
  let shares =
    List.filter
      (fun s ->
        if Hashtbl.mem seen s.origin || Hashtbl.length seen >= pub.k then false
        else begin Hashtbl.add seen s.origin (); true end)
      shares
  in
  if List.length shares < pub.k then invalid_arg "Multi_sig.assemble: not enough distinct shares";
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%04d" (List.length shares));
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "%04d%08d" s.origin (String.length s.signature));
      Buffer.add_string buf s.signature)
    shares;
  Buffer.contents buf

let parse_assembled (s : string) : share list option =
  let len = String.length s in
  if len < 4 then None
  else
    match int_of_string_opt (String.sub s 0 4) with
    | None -> None
    | Some count ->
      let rec go pos remaining acc =
        if remaining = 0 then (if pos = len then Some (List.rev acc) else None)
        else if pos + 12 > len then None
        else
          match
            int_of_string_opt (String.sub s pos 4),
            int_of_string_opt (String.sub s (pos + 4) 8)
          with
          | Some origin, Some siglen when pos + 12 + siglen <= len ->
            let signature = String.sub s (pos + 12) siglen in
            go (pos + 12 + siglen) (remaining - 1) ({ origin; signature } :: acc)
          | _ -> None
      in
      go 4 count []

let verify (pub : public) ~(ctx : string) ~(signature : string) (msg : string) : bool =
  match parse_assembled signature with
  | None -> false
  | Some shares ->
    let distinct = List.sort_uniq compare (List.map (fun s -> s.origin) shares) in
    List.length distinct >= pub.k
    && List.length distinct = List.length shares
    && List.for_all (verify_share pub ~ctx msg) shares

let signature_bytes (pub : public) : int =
  (* Size of an assembled multi-signature, for wire-cost accounting. *)
  let per = 12 + Rsa.signature_bytes pub.party_keys.(0) in
  4 + (pub.k * per)
