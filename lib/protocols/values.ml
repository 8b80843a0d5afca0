include Set.Make (Int)
