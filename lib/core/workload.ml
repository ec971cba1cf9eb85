type t =
  | Open_loop of { rate : float; broadcast : bool }
  | Closed_loop of { clients : int }

let open_loop ?(broadcast = false) ~rate () =
  if not (Float.is_finite rate && rate >= 0.0) then
    invalid_arg "Workload.open_loop: rate must be a finite number >= 0";
  Open_loop { rate; broadcast }

let closed_loop ~clients =
  if clients <= 0 then
    invalid_arg "Workload.closed_loop: clients must be positive";
  Closed_loop { clients }

let describe = function
  | Open_loop { rate; broadcast } ->
      Printf.sprintf "open-loop %.0f tx/s%s" rate
        (if broadcast then " (broadcast)" else "")
  | Closed_loop { clients } -> Printf.sprintf "closed-loop %d clients" clients
