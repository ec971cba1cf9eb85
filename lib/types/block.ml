type t = {
  hash : Ids.hash;
  view : Ids.view;
  height : Ids.height;
  parent : Ids.hash;
  justify : Qc.t;
  proposer : Ids.replica;
  body : Body.t;
  tx_root : Ids.hash;
}

(* Leaves commit to both the id and the payload bytes so that an executed
   command cannot be substituted after certification. A leaf's preimage
   is "client:seq|data". Hashes feed their parts into a context, ints as
   their decimal digits, instead of building the concatenated string; the
   digest is that of the concatenation. *)
let feed_leaf ctx body i =
  Bamboo_crypto.Sha256.feed_int ctx (Body.client body i);
  Bamboo_crypto.Sha256.feed_char ctx ':';
  Bamboo_crypto.Sha256.feed_int ctx (Body.seq body i);
  Bamboo_crypto.Sha256.feed_char ctx '|';
  Bamboo_crypto.Sha256.feed ctx (Body.data body i)

let leaf_hash body i =
  let ctx = Bamboo_crypto.Sha256.init () in
  feed_leaf ctx body i;
  Bamboo_crypto.Sha256.finalize ctx

let node_hash a b =
  let ctx = Bamboo_crypto.Sha256.init () in
  Bamboo_crypto.Sha256.feed ctx a;
  Bamboo_crypto.Sha256.feed ctx b;
  Bamboo_crypto.Sha256.finalize ctx

let merkle_root body =
  match List.init (Body.length body) (leaf_hash body) with
  | [] -> Bamboo_crypto.Sha256.digest ""
  | leaves ->
      let rec level nodes =
        match nodes with
        | [ root ] -> root
        | _ ->
            let rec pair acc = function
              | [] -> List.rev acc
              | [ last ] ->
                  (* Odd node: pair with itself (Bitcoin-style). *)
                  List.rev (node_hash last last :: acc)
              | a :: b :: rest -> pair (node_hash a b :: acc) rest
            in
            level (pair [] nodes)
      in
      level leaves

let header_preimage ~view ~height ~parent ~(justify : Qc.t) ~proposer ~tx_root =
  String.concat "|"
    [
      "block";
      string_of_int view;
      string_of_int height;
      parent;
      string_of_int justify.view;
      justify.block;
      string_of_int proposer;
      tx_root;
    ]

let genesis =
  let tx_root = merkle_root Body.empty in
  let parent = String.make 32 '\x00' in
  let justify = Qc.genesis ~block:parent in
  let preimage =
    header_preimage ~view:0 ~height:0 ~parent ~justify ~proposer:(-1) ~tx_root
  in
  let hash = Bamboo_crypto.Sha256.digest preimage in
  {
    hash;
    view = 0;
    height = 0;
    parent;
    justify = Qc.genesis ~block:hash;
    proposer = -1;
    body = Body.empty;
    tx_root;
  }

let genesis_hash = genesis.hash

(* Each leaf and its comma go into the context as one record, written
   straight into the pending block. *)
let flat_root body =
  let ctx = Bamboo_crypto.Sha256.init () in
  for i = 0 to Body.length body - 1 do
    Bamboo_crypto.Sha256.feed_fields ctx (Body.client body i) ':' (Body.seq body i)
      '|' (Body.data body i) ','
  done;
  Bamboo_crypto.Sha256.finalize ctx

let of_body ?(root = `Merkle) ~view ~parent ~justify ~proposer body =
  let height = parent.height + 1 in
  let tx_root =
    match root with `Merkle -> merkle_root body | `Flat -> flat_root body
  in
  let preimage =
    header_preimage ~view ~height ~parent:parent.hash ~justify ~proposer ~tx_root
  in
  {
    hash = Bamboo_crypto.Sha256.digest preimage;
    view;
    height;
    parent = parent.hash;
    justify;
    proposer;
    body;
    tx_root;
  }

let create ?root ~view ~parent ~justify ~proposer ~txs () =
  of_body ?root ~view ~parent ~justify ~proposer (Body.of_list txs)

let signed_payload b = "propose|" ^ b.hash

let header_wire_size = 32 + 8 + 8 + 32 + 8 + 32 (* hash,view,height,parent,proposer,root *)

let wire_size b =
  header_wire_size + Qc.wire_size b.justify + Body.wire_size b.body

let equal a b = String.equal a.hash b.hash

let pp fmt b =
  Format.fprintf fmt "B<v%d,h%d,%a,parent=%a,%d txs>" b.view b.height
    Ids.pp_hash b.hash Ids.pp_hash b.parent (Body.length b.body)
