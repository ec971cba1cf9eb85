(** A set of committed transaction ids whose size follows the reorder
    window, not the run.

    Each client's committed sequence numbers are a contiguous run plus a
    sparse bitmap of the seqs committed outside it, in 32-seq words. While
    a client numbers its seqs densely and they commit nearly in order, the
    run absorbs the bitmap and the client costs a constant; a seq that
    never commits leaves about one table entry per 32 seqs above it.

    Each client caches the bitmap word last written and writes it back to
    its table only when another word is written, so adds that stay in one
    word, as a block's slice of seqs does, hash nothing. The cache changes
    no size bound: an emptied word still gives its table entry back.

    Each {!Mempool} keeps one for deduplication, and the threaded runtime
    keeps one for the cluster's commit count and commit waits. Both feed
    it ids read from a committed block's {!Bamboo_types.Body}. *)

type t

val create : unit -> t

val mem : t -> client:int -> seq:int -> bool
(** Whether the id [(client, seq)] was added. The id is passed as two
    ints, so a lookup from a block body builds no {!Bamboo_types.Tx.id}. *)

val add : t -> client:int -> seq:int -> bool
(** [add t ~client ~seq] records the id as committed and returns whether
    it was new. *)

val count : t -> int
(** Distinct ids added so far. *)
