(* Correctness gates for the simulator workloads. Every gated output is
   compared with the value recorded from the parent revision
   ({!Pb_expected}); a mismatch fails the run. *)

(* The seed a run is given picks one of [recorded_seeds] simulator seeds,
   42 (the configuration default, what [bamboo experiment table2] prints)
   and the ones after it, so every seed has a recorded expectation. *)
let recorded_seeds = 8

let config_seed seed = 42 + (((seed mod recorded_seeds) + recorded_seeds) mod recorded_seeds)

let rows_key rows = String.concat ";" (List.map (String.concat ",") rows)

type fingerprint = { txs : int; views : int; events : int; p50_ms : float }

let fingerprint_key f =
  Printf.sprintf "txs=%d views=%d events=%d p50_ms=%.6f" f.txs f.views f.events
    f.p50_ms

let check ~what ~table ~cfg_seed actual =
  match List.assoc_opt cfg_seed table with
  | None -> Error (Printf.sprintf "%s: nothing recorded for seed %d" what cfg_seed)
  | Some expected when String.equal expected actual -> Ok ()
  | Some expected ->
      Error
        (Printf.sprintf "%s (seed %d): expected %S, got %S" what cfg_seed
           expected actual)
