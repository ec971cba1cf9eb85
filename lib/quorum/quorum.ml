open Bamboo_types

(* A set of replica ids in [0, n) as n bits plus its size, so a vote or
   timeout costs one bit test and one count comparison instead of scans
   of the member list. *)
module Members = struct
  module Bitset = Bamboo_util.Bitset

  type t = { bits : Bitset.t; mutable count : int }

  let create ~n = { bits = Bitset.create ~n; count = 0 }

  (* Adds [i]; false if it was already a member. *)
  let add m i =
    if Bitset.add m.bits i then begin
      m.count <- m.count + 1;
      true
    end
    else false

  let iter f m = Bitset.iter f m.bits
end

type vote_slot = {
  mutable votes : Vote.t list; (* newest first, distinct voters *)
  voters : Members.t;
  mutable qc : Qc.t option;
}

type timeout_slot = {
  mutable timeouts : Timeout_msg.t list;
  senders : Members.t;
  mutable tc : Tcert.t option;
}

(* Vote slots are keyed by (block hash, view). A functorial table with a
   monomorphic hash/equal keeps the per-vote hot path off the polymorphic
   primitives that would otherwise walk the boxed pair on every probe. *)
module Vote_key = struct
  type t = Ids.hash * Ids.view

  let equal (h1, v1) (h2, v2) = Int.equal v1 v2 && String.equal h1 h2
  let hash (h, v) = Ids.hash_key h lxor (v * 0x9e3779b1)
end

module Vote_tbl = Hashtbl.Make (Vote_key)

type t = {
  n : int;
  quorum : int;
  vote_slots : vote_slot Vote_tbl.t;
  timeout_slots : (Ids.view, timeout_slot) Hashtbl.t;
}

let create ~n =
  if n <= 0 then invalid_arg "Quorum.create: n must be positive";
  let f = (n - 1) / 3 in
  { n; quorum = (2 * f) + 1; vote_slots = Vote_tbl.create 64; timeout_slots = Hashtbl.create 16 }

let n t = t.n
let quorum_size t = t.quorum
let fault_bound t = (t.n - 1) / 3

let vote_slot t key =
  match Vote_tbl.find_opt t.vote_slots key with
  | Some s -> s
  | None ->
      let s = { votes = []; voters = Members.create ~n:t.n; qc = None } in
      Vote_tbl.add t.vote_slots key s;
      s

(* Ids outside [0, n) name no replica and never count toward a quorum. *)
let in_range t i = i >= 0 && i < t.n

let voted t (v : Vote.t) =
  if not (in_range t v.voter) then None
  else
    let slot = vote_slot t (v.block, v.view) in
    if not (Members.add slot.voters v.voter) then None
    else begin
      slot.votes <- v :: slot.votes;
      match slot.qc with
      | Some _ -> None (* already certified; QC was reported once *)
      | None ->
          if slot.voters.count >= t.quorum then begin
            let qc =
              Qc.
                {
                  block = v.block;
                  view = v.view;
                  height = v.height;
                  sigs = List.map (fun (vt : Vote.t) -> vt.signature) slot.votes;
                }
            in
            slot.qc <- Some qc;
            Some qc
          end
          else None
    end

let certified t ~block ~view =
  match Vote_tbl.find_opt t.vote_slots (block, view) with
  | Some slot -> slot.qc
  | None -> None

let vote_count t ~block ~view =
  match Vote_tbl.find_opt t.vote_slots (block, view) with
  | Some slot -> slot.voters.count
  | None -> 0

let timeout_slot t view =
  match Hashtbl.find_opt t.timeout_slots view with
  | Some s -> s
  | None ->
      let s = { timeouts = []; senders = Members.create ~n:t.n; tc = None } in
      Hashtbl.add t.timeout_slots view s;
      s

let timed_out t (tm : Timeout_msg.t) =
  if not (in_range t tm.sender) then None
  else
    let slot = timeout_slot t tm.view in
    if not (Members.add slot.senders tm.sender) then None
    else begin
      slot.timeouts <- tm :: slot.timeouts;
      match slot.tc with
      | Some _ -> None
      | None ->
          if slot.senders.count >= t.quorum then begin
            let tc = Tcert.of_timeouts slot.timeouts in
            slot.tc <- Some tc;
            Some tc
          end
          else None
    end

let timeout_count t ~view =
  match Hashtbl.find_opt t.timeout_slots view with
  | Some slot -> slot.senders.count
  | None -> 0

let tc_for t ~view =
  match Hashtbl.find_opt t.timeout_slots view with
  | Some slot -> slot.tc
  | None -> None

(* Canonical digest of the aggregation state, for the model checker's
   replica-state fingerprints. Vote and timeout slots are emitted in
   sorted key order with sorted member lists, so two quorum systems that
   accumulated the same sets in different orders digest identically
   (certificate signature lists are deliberately excluded for the same
   reason — only presence matters for future behavior). *)
let fingerprint t buf =
  let add_i i =
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ';'
  in
  let add_s s =
    add_i (String.length s);
    Buffer.add_string buf s
  in
  (* Collecting into a list before sorting is order-insensitive. *)
  let[@lint.allow "no-order-leak"] votes =
    Vote_tbl.fold
      (fun (h, view) slot acc -> (h, view, slot) :: acc)
      t.vote_slots []
  in
  let votes =
    List.sort
      (fun (h1, v1, _) (h2, v2, _) ->
        match String.compare h1 h2 with 0 -> Int.compare v1 v2 | c -> c)
      votes
  in
  List.iter
    (fun (h, view, slot) ->
      add_s h;
      add_i view;
      Members.iter add_i slot.voters;
      add_i (if Option.is_some slot.qc then 1 else 0))
    votes;
  Buffer.add_char buf '|';
  List.iter
    (fun (view, slot) ->
      add_i view;
      Members.iter add_i slot.senders;
      add_i (if Option.is_some slot.tc then 1 else 0))
    (Bamboo_util.Tbl.sorted_bindings ~compare:Int.compare t.timeout_slots)

let gc t ~below_view =
  (* Collecting dead keys into a list is order-insensitive: the same set
     is removed whatever order the buckets are visited in. A fold visits
     every bucket, so empty tables (most replicas hold no vote slot) are
     skipped. *)
  if Vote_tbl.length t.vote_slots > 0 then begin
    let[@lint.allow "no-order-leak"] dead_votes =
      Vote_tbl.fold
        (fun ((_, view) as key) _ acc -> if view < below_view then key :: acc else acc)
        t.vote_slots []
    in
    List.iter (Vote_tbl.remove t.vote_slots) dead_votes
  end;
  if Hashtbl.length t.timeout_slots > 0 then begin
    let[@lint.allow "no-order-leak"] dead_timeouts =
      Hashtbl.fold
        (fun view _ acc -> if view < below_view then view :: acc else acc)
        t.timeout_slots []
    in
    List.iter (Hashtbl.remove t.timeout_slots) dead_timeouts
  end
