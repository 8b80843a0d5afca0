open Ftss_util

type 'm delivery = { src : Pid.t; payload : 'm }

type ('s, 'm) t = {
  name : string;
  init : Pid.t -> 's;
  broadcast : Pid.t -> 's -> 'm;
  step : Pid.t -> 's -> 'm delivery list -> 's;
}
