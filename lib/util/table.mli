(** Fixed-width ASCII tables for the benchmark harness, in the style of the
    tables a systems paper would print. *)

type t

(** [create ~title headers] starts a table with the given column headers. *)
val create : title:string -> string list -> t

(** [add_row t cells] appends a row; the row is padded or truncated to the
    header width. *)
val add_row : t -> string list -> unit

(** [add_separator t] inserts a horizontal rule between row groups. *)
val add_separator : t -> unit

val print : t -> unit
