(* Proposals are keyed by block hash, votes by an n-bit voter set per
   block, timeouts by an n-bit sender set per view; ids outside [0, n) and
   block requests fall back to their [Message.key] string. Each identity
   lands in exactly one of the four tables, and [Message.key] is injective
   on identities, so membership here is membership of the key set. *)

module View_tbl = Hashtbl.Make (Int)
module Bitset = Bamboo_util.Bitset

type t = {
  n : int;
  proposals : unit Ids.Hash_tbl.t;
  votes : Bitset.t Ids.Hash_tbl.t; (* voters in [0, n), per block *)
  timeouts : Bitset.t View_tbl.t; (* senders in [0, n), per view *)
  keyed : (string, unit) Hashtbl.t; (* [Message.key] of everything else *)
}

let create ~n =
  if n <= 0 then invalid_arg "Seen_tbl.create: n must be positive";
  {
    n;
    proposals = Ids.Hash_tbl.create 256;
    votes = Ids.Hash_tbl.create 256;
    timeouts = View_tbl.create 16;
    keyed = Hashtbl.create 16;
  }

let in_range t i = i >= 0 && i < t.n

let mem t (msg : Message.t) =
  match msg with
  | Proposal { block; _ } -> Ids.Hash_tbl.mem t.proposals block.Block.hash
  | Vote v when in_range t v.voter -> (
      match Ids.Hash_tbl.find t.votes v.block with
      | bits -> Bitset.mem bits v.voter
      | exception Not_found -> false)
  | Timeout tm when in_range t tm.sender -> (
      match View_tbl.find t.timeouts tm.view with
      | bits -> Bitset.mem bits tm.sender
      | exception Not_found -> false)
  | Vote _ | Timeout _ | Request_block _ -> Hashtbl.mem t.keyed (Message.key msg)

let add t (msg : Message.t) =
  match msg with
  | Proposal { block; _ } ->
      if Ids.Hash_tbl.mem t.proposals block.Block.hash then false
      else begin
        Ids.Hash_tbl.add t.proposals block.Block.hash ();
        true
      end
  | Vote v when in_range t v.voter ->
      let bits =
        match Ids.Hash_tbl.find t.votes v.block with
        | bits -> bits
        | exception Not_found ->
            let bits = Bitset.create ~n:t.n in
            Ids.Hash_tbl.add t.votes v.block bits;
            bits
      in
      Bitset.add bits v.voter
  | Timeout tm when in_range t tm.sender ->
      let bits =
        match View_tbl.find t.timeouts tm.view with
        | bits -> bits
        | exception Not_found ->
            let bits = Bitset.create ~n:t.n in
            View_tbl.add t.timeouts tm.view bits;
            bits
      in
      Bitset.add bits tm.sender
  | Vote _ | Timeout _ | Request_block _ ->
      let key = Message.key msg in
      if Hashtbl.mem t.keyed key then false
      else begin
        Hashtbl.add t.keyed key ();
        true
      end

let sorted_keys t =
  let members bits key acc =
    let acc = ref acc in
    Bitset.iter (fun i -> acc := key i :: !acc) bits;
    !acc
  in
  (* Every fold below only collects into a list, which is sorted once at
     the end, so bucket order cannot reach the result. *)
  let[@lint.allow "no-order-leak"] keys =
    Ids.Hash_tbl.fold (fun h () acc -> Message.proposal_key h :: acc) t.proposals []
  in
  let[@lint.allow "no-order-leak"] keys =
    Ids.Hash_tbl.fold
      (fun block bits acc -> members bits (fun voter -> Message.vote_key ~block ~voter) acc)
      t.votes keys
  in
  let[@lint.allow "no-order-leak"] keys =
    View_tbl.fold
      (fun view bits acc ->
        members bits (fun sender -> Message.timeout_key ~view ~sender) acc)
      t.timeouts keys
  in
  let[@lint.allow "no-order-leak"] keys =
    Hashtbl.fold (fun key () acc -> key :: acc) t.keyed keys
  in
  List.sort String.compare keys
