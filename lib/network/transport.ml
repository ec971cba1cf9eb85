module type S = sig
  type t

  val self : t -> int
  val n : t -> int
  val send : t -> dst:int -> Bamboo_types.Message.t -> unit
  val broadcast : t -> Bamboo_types.Message.t -> unit
  val recv : t -> timeout_s:float -> Bamboo_types.Message.t option
  val recv_batch : t -> timeout_s:float -> max:int -> Bamboo_types.Message.t list
  val close : t -> unit
end
