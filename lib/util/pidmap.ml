include Map.Make (Pid)
