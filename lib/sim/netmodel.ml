module Rng = Bamboo_util.Rng
module Dist = Bamboo_util.Dist

type fluctuation = { from_t : float; until_t : float; lo : float; hi : float }

type effect_kind =
  | Extra_delay of { mu : float; sigma : float }
  | Spike of { lo : float; hi : float }
  | Drop of float
  | Duplicate of float
  | Reorder of { prob : float; jitter : float }

type effect = { rng : Rng.t; kind : effect_kind }

type link = { mutable blocked : int; mutable effects : effect list }

type t = {
  rng : Rng.t;
  mu : float;
  sigma : float;
  mutable extra_mu : float;
  mutable extra_sigma : float;
  mutable fluctuation : fluctuation option;
  mutable loss : float;
  links : (int, link) Hashtbl.t;  (* keyed by [link_key ~src ~dst] *)
  mutable n_blocked : int; (* pairs currently blocked (counting overlaps) *)
  mutable n_effects : int; (* attached effects across all pairs *)
  (* observe-only tallies, surfaced through [stats] *)
  mutable n_sends : int;
  mutable n_base_drops : int;
  mutable n_fault_drops : int;
  mutable n_duplicates : int;
  mutable n_activations : int; (* attach + block calls over the run *)
}

type stats = {
  sends : int;
  base_drops : int;
  fault_drops : int;
  duplicates : int;
  fault_activations : int;
}

let create ~rng ~mu ~sigma ?(extra_mu = 0.0) ?(extra_sigma = 0.0) () =
  if mu < 0.0 || sigma < 0.0 then invalid_arg "Netmodel.create: negative parameter";
  {
    rng;
    mu;
    sigma;
    extra_mu;
    extra_sigma;
    fluctuation = None;
    loss = 0.0;
    links = Hashtbl.create 64;
    n_blocked = 0;
    n_effects = 0;
    n_sends = 0;
    n_base_drops = 0;
    n_fault_drops = 0;
    n_duplicates = 0;
    n_activations = 0;
  }

let stats t =
  {
    sends = t.n_sends;
    base_drops = t.n_base_drops;
    fault_drops = t.n_fault_drops;
    duplicates = t.n_duplicates;
    fault_activations = t.n_activations;
  }

let set_loss t ~rate =
  if rate < 0.0 || rate >= 1.0 then
    invalid_arg "Netmodel.set_loss: rate must be in [0, 1)";
  t.loss <- rate

let drops t ~now:_ =
  let dropped = t.loss > 0.0 && Rng.float t.rng 1.0 < t.loss in
  if dropped then t.n_base_drops <- t.n_base_drops + 1;
  dropped

let set_extra_delay t ~mu ~sigma =
  t.extra_mu <- mu;
  t.extra_sigma <- sigma

let set_fluctuation t ~from_t ~until_t ~lo ~hi =
  t.fluctuation <- Some { from_t; until_t; lo; hi }

let clear_fluctuation t = t.fluctuation <- None

(* Base one-way delay: the normal base distribution, replaced by the
   uniform draw inside a fluctuation window; the configured extra delay
   (the paper's "slow" command) composes additively with either. *)
let[@inline] base_sample t ~now =
  let base =
    match t.fluctuation with
    | Some f when now >= f.from_t && now < f.until_t ->
        Dist.uniform t.rng ~lo:f.lo ~hi:f.hi
    | Some _ | None -> Dist.normal_pos t.rng ~mu:t.mu ~sigma:t.sigma
  in
  if t.extra_mu > 0.0 || t.extra_sigma > 0.0 then
    base +. Dist.normal_pos t.rng ~mu:t.extra_mu ~sigma:t.extra_sigma
  else base

(* --- per-(src,dst) fault plane ---

   Every stochastic effect carries its own RNG stream (supplied by the
   fault engine), so attaching or sampling effects never advances [t.rng]:
   the base delay/loss streams of a faulted run stay aligned with the
   fault-free run, and a run with no effects attached is bit-identical to
   one built before this machinery existed. *)

let effect ~rng kind = { rng; kind }

(* Pack the (src, dst) pair into one immediate int so link lookups never
   hash a boxed tuple. Node ids are small (Table I tops out at n = 128),
   so 16 bits per endpoint is comfortable. *)
let link_key ~src ~dst = (src lsl 16) lor (dst land 0xffff)

let link t ~src ~dst =
  match Hashtbl.find_opt t.links (link_key ~src ~dst) with
  | Some l -> l
  | None ->
      let l = { blocked = 0; effects = [] } in
      Hashtbl.add t.links (link_key ~src ~dst) l;
      l

let find_link t ~src ~dst =
  if t.n_blocked = 0 && t.n_effects = 0 then None
  else Hashtbl.find_opt t.links (link_key ~src ~dst)

let attach t ~src ~dst e =
  let l = link t ~src ~dst in
  l.effects <- l.effects @ [ e ];
  t.n_effects <- t.n_effects + 1;
  t.n_activations <- t.n_activations + 1

let detach t ~src ~dst e =
  match Hashtbl.find_opt t.links (link_key ~src ~dst) with
  | None -> ()
  | Some l ->
      let before = List.length l.effects in
      l.effects <- List.filter (fun e' -> e' != e) l.effects;
      t.n_effects <- t.n_effects - (before - List.length l.effects)

let block t ~src ~dst =
  let l = link t ~src ~dst in
  l.blocked <- l.blocked + 1;
  t.n_blocked <- t.n_blocked + 1;
  t.n_activations <- t.n_activations + 1

let unblock t ~src ~dst =
  match Hashtbl.find_opt t.links (link_key ~src ~dst) with
  | Some l when l.blocked > 0 ->
      l.blocked <- l.blocked - 1;
      t.n_blocked <- t.n_blocked - 1
  | Some _ | None -> ()

let blocked t ~src ~dst =
  match find_link t ~src ~dst with Some l -> l.blocked > 0 | None -> false

let one_way t ~now ~src ~dst =
  t.n_sends <- t.n_sends + 1;
  let base = base_sample t ~now in
  match find_link t ~src ~dst with
  | None -> base
  | Some l ->
      List.fold_left
        (fun acc e ->
          match e.kind with
          | Extra_delay { mu; sigma } ->
              acc +. Dist.normal_pos e.rng ~mu ~sigma
          | Spike { lo; hi } -> acc +. Dist.uniform e.rng ~lo ~hi
          | Reorder { prob; jitter } ->
              if Rng.float e.rng 1.0 < prob then acc +. Rng.float e.rng jitter
              else acc
          | Drop _ | Duplicate _ -> acc)
        base l.effects

let link_drops t ~src ~dst =
  match find_link t ~src ~dst with
  | None -> false
  | Some l ->
      (* Sample every active loss effect (composition of independent
         drops), so overlapping faults keep their own streams aligned. *)
      let dropped =
        List.fold_left
          (fun dropped e ->
            match e.kind with
            | Drop p -> Rng.float e.rng 1.0 < p || dropped
            | Extra_delay _ | Spike _ | Duplicate _ | Reorder _ -> dropped)
          false l.effects
      in
      if dropped then t.n_fault_drops <- t.n_fault_drops + 1;
      dropped

let link_copies t ~src ~dst =
  match find_link t ~src ~dst with
  | None -> []
  | Some l ->
      let copies =
        List.fold_left
        (fun copies e ->
          match e.kind with
          | Duplicate p when Rng.float e.rng 1.0 < p ->
              (* The copy's delay is an independent base-distribution
                 sample from the duplicating fault's own stream. *)
              Dist.normal_pos e.rng ~mu:t.mu ~sigma:t.sigma :: copies
            | Duplicate _ | Extra_delay _ | Spike _ | Drop _ | Reorder _ ->
              copies)
          [] l.effects
      in
      t.n_duplicates <- t.n_duplicates + List.length copies;
      copies

let[@inline] client_rtt t ~now = 2.0 *. base_sample t ~now

let mean_one_way t = t.mu +. t.extra_mu
