exception Decode_error of string

(* --- primitive writers --- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_i64 buf v = Buffer.add_int64_be buf (Int64.of_int v)

let put_bytes buf s =
  put_i64 buf (String.length s);
  Buffer.add_string buf s

(* --- primitive readers --- *)

let need s pos n =
  if !pos + n > String.length s then
    raise (Decode_error (Printf.sprintf "truncated input at %d (need %d)" !pos n))

let get_u8 s pos =
  need s pos 1;
  let v = Char.code s.[!pos] in
  incr pos;
  v

let get_i64 s pos =
  need s pos 8;
  let v = Int64.to_int (String.get_int64_be s !pos) in
  pos := !pos + 8;
  v

let get_bytes s pos =
  let len = get_i64 s pos in
  if len < 0 then raise (Decode_error "negative length");
  need s pos len;
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

(* --- signatures --- *)

let encode_sig buf (s : Bamboo_crypto.Sig.t) =
  put_i64 buf s.signer;
  put_bytes buf (Bamboo_crypto.Sig.tag s)

let decode_sig s pos : Bamboo_crypto.Sig.t =
  let signer = get_i64 s pos in
  let tag = get_bytes s pos in
  Bamboo_crypto.Sig.of_tag ~signer tag

let encode_sig_list buf sigs =
  put_i64 buf (List.length sigs);
  List.iter (encode_sig buf) sigs

let decode_sig_list s pos =
  let n = get_i64 s pos in
  if n < 0 || n > 1_000_000 then raise (Decode_error "bad signature count");
  List.init n (fun _ -> decode_sig s pos)

(* --- QC --- *)

let encode_qc buf (qc : Qc.t) =
  put_bytes buf qc.block;
  put_i64 buf qc.view;
  put_i64 buf qc.height;
  encode_sig_list buf qc.sigs

let decode_qc s ~pos : Qc.t =
  let block = get_bytes s pos in
  let view = get_i64 s pos in
  let height = get_i64 s pos in
  let sigs = decode_sig_list s pos in
  { block; view; height; sigs }

(* --- transactions --- *)

(* A transaction is its client, seq and payload length, then its data
   with a length prefix: at least [min_tx_bytes] on the wire. *)
let min_tx_bytes = 32

let encode_body buf body =
  put_i64 buf (Body.length body);
  for i = 0 to Body.length body - 1 do
    put_i64 buf (Body.client body i);
    put_i64 buf (Body.seq body i);
    put_i64 buf (Body.payload_len body i);
    put_bytes buf (Body.data body i)
  done

(* The count is checked against the bytes left before any column is
   sized, so a short frame cannot claim a huge body. *)
let decode_body s pos =
  let n = get_i64 s pos in
  if n < 0 || n > (String.length s - !pos) / min_tx_bytes then
    raise (Decode_error "bad tx count");
  let b = Body.Builder.create n in
  for _ = 1 to n do
    let client = get_i64 s pos in
    let seq = get_i64 s pos in
    let payload_len = get_i64 s pos in
    if payload_len < 0 then raise (Decode_error "negative payload length");
    let data = get_bytes s pos in
    Body.Builder.add b ~client ~seq ~payload_len ~data
  done;
  Body.Builder.finish b

(* --- blocks --- *)

let encode_block buf (b : Block.t) =
  put_bytes buf b.hash;
  put_i64 buf b.view;
  put_i64 buf b.height;
  put_bytes buf b.parent;
  encode_qc buf b.justify;
  put_i64 buf b.proposer;
  put_bytes buf b.tx_root;
  encode_body buf b.body

let decode_block s ~pos : Block.t =
  let hash = get_bytes s pos in
  let view = get_i64 s pos in
  let height = get_i64 s pos in
  let parent = get_bytes s pos in
  let justify = decode_qc s ~pos in
  let proposer = get_i64 s pos in
  let tx_root = get_bytes s pos in
  let body = decode_body s pos in
  { hash; view; height; parent; justify; proposer; body; tx_root }

(* --- votes, timeouts, TCs --- *)

let encode_vote buf (v : Vote.t) =
  put_bytes buf v.block;
  put_i64 buf v.view;
  put_i64 buf v.height;
  put_i64 buf v.voter;
  encode_sig buf v.signature

let decode_vote s pos : Vote.t =
  let block = get_bytes s pos in
  let view = get_i64 s pos in
  let height = get_i64 s pos in
  let voter = get_i64 s pos in
  let signature = decode_sig s pos in
  { block; view; height; voter; signature }

let encode_timeout buf (t : Timeout_msg.t) =
  put_i64 buf t.view;
  encode_qc buf t.high_qc;
  put_i64 buf t.sender;
  encode_sig buf t.signature

let decode_timeout s pos : Timeout_msg.t =
  let view = get_i64 s pos in
  let high_qc = decode_qc s ~pos in
  let sender = get_i64 s pos in
  let signature = decode_sig s pos in
  { view; high_qc; sender; signature }

let encode_tc buf (tc : Tcert.t) =
  put_i64 buf tc.view;
  encode_qc buf tc.high_qc;
  encode_sig_list buf tc.sigs

let decode_tc s pos : Tcert.t =
  let view = get_i64 s pos in
  let high_qc = decode_qc s ~pos in
  let sigs = decode_sig_list s pos in
  { view; high_qc; sigs }

(* --- top-level messages --- *)

let encode msg =
  let buf = Buffer.create 256 in
  (match msg with
  | Message.Proposal { block; tc } ->
      put_u8 buf 1;
      encode_block buf block;
      (match tc with
      | None -> put_u8 buf 0
      | Some tc ->
          put_u8 buf 1;
          encode_tc buf tc)
  | Message.Vote v ->
      put_u8 buf 2;
      encode_vote buf v
  | Message.Timeout t ->
      put_u8 buf 3;
      encode_timeout buf t
  | Message.Request_block { hash; requester } ->
      put_u8 buf 4;
      put_bytes buf hash;
      put_i64 buf requester);
  Buffer.contents buf

let decode s =
  let pos = ref 0 in
  let msg =
    match get_u8 s pos with
    | 1 ->
        let block = decode_block s ~pos in
        let tc =
          match get_u8 s pos with
          | 0 -> None
          | 1 -> Some (decode_tc s pos)
          | n -> raise (Decode_error (Printf.sprintf "bad TC flag %d" n))
        in
        Message.Proposal { block; tc }
    | 2 -> Message.Vote (decode_vote s pos)
    | 3 -> Message.Timeout (decode_timeout s pos)
    | 4 ->
        let hash = get_bytes s pos in
        let requester = get_i64 s pos in
        Message.Request_block { hash; requester }
    | n -> raise (Decode_error (Printf.sprintf "unknown message tag %d" n))
  in
  if !pos <> String.length s then raise (Decode_error "trailing bytes");
  msg
