(** Cmdliner front end for the linter; see README "Static analysis". *)

val term : unit Cmdliner.Term.t
(** The linter's flags and action; the main [bamboo] CLI serves it as its
    [lint] subcommand. *)

val exits : Cmdliner.Cmd.Exit.info list
(** The exit statuses every bamboo command lists in its help: 0 success,
    1 an invariant violation or error-severity finding, 2 a usage or input
    error. Both the standalone linter and the main [bamboo] CLI print
    them. *)

val doc : string
(** The linter's one-line description, shown in both commands' help. *)

val main : unit -> int
(** Entry point for the standalone [bamboo_lint] executable. Returns the
    process exit code: 0 clean, 1 error-severity findings, 2 usage
    error. *)
