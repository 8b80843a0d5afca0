type t = int

let compare = Int.compare
let equal = Int.equal
let pp ppf p = Format.fprintf ppf "p%d" p

let all n =
  if n < 0 then invalid_arg "Pid.all: negative system size"
  else List.init n (fun i -> i)

let is_valid ~n p = 0 <= p && p < n
