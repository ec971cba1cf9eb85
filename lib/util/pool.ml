let recommended_jobs () = Domain.recommended_domain_count ()

(* Wall-clock reads feed the optional per-task latency probe only; the
   timings are observability output and never influence task results or
   ordering, so the determinism rules stay intact. *)
let monotime () =
  (Unix.gettimeofday [@lint.allow "no-ambient-nondeterminism"]) ()

let timed probe f i x =
  match probe with
  | None -> f x
  | Some p ->
      let t0 = monotime () in
      let r = f x in
      p i (monotime () -. t0);
      r

(* Every minor collection stops all domains. With the default minor heap
   (256k words) two simulator runs in parallel meet about a thousand
   times a second, so a domain whose CPU is taken away for a moment (steal
   on a shared VM) soon stalls the other. Workers run with a minor heap of
   at least [worker_minor_words] (8 MB), which makes the meetings four
   times rarer; the calling domain gets its own size back afterwards. *)
let worker_minor_words = 1 lsl 20

(* Returns the size to give back to [restore_minor_heap]. *)
let grow_minor_heap words =
  let size = (Gc.get ()).Gc.minor_heap_size in
  if size < words then Gc.set { (Gc.get ()) with Gc.minor_heap_size = words };
  size

let restore_minor_heap size =
  if (Gc.get ()).Gc.minor_heap_size <> size then
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = size }

(* Work-stealing by atomic index: workers repeatedly claim the next
   unclaimed input slot, so long tasks do not hold up short ones and the
   result array is filled in input order regardless of completion order. *)
let map_parallel ~jobs ~probe f inputs =
  let n = Array.length inputs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failed = Atomic.make None in
  (* [results] is written by every worker, but the atomic ticket in
     [next] hands each index to exactly one of them, and the spawner
     only reads after joining — disjoint writes, no lock needed. *)
  let[@lint.allow "domain-escape"] rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n && Atomic.get failed = None then begin
      (match timed probe f i inputs.(i) with
      | r -> results.(i) <- Some r
      | exception e ->
          (* Keep the first failure; once set, workers drain out. *)
          ignore (Atomic.compare_and_set failed None (Some e) : bool));
      claim ()
    end
  in
  let worker () =
    let size = grow_minor_heap worker_minor_words in
    match claim () with
    | () -> restore_minor_heap size
    | exception e ->
        restore_minor_heap size;
        raise e
  in
  let spawned =
    (* The calling domain is worker number [jobs], so spawn one fewer. *)
    List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  (match Atomic.get failed with Some e -> raise e | None -> ());
  Array.to_list
    (Array.map
       (function Some r -> r | None -> assert false (* no failure: all set *))
       results)

let map ~jobs ?probe f xs =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  match xs with
  | [] -> []
  | [ x ] -> [ timed probe f 0 x ]
  | xs when jobs = 1 -> List.mapi (fun i x -> timed probe f i x) xs
  | xs -> map_parallel ~jobs ~probe f (Array.of_list xs)
