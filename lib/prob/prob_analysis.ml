open Scald_core

module Dist = struct
  type t = { mean : float; variance : float }

  let of_delay (d : Delay.t) =
    let min_f = float_of_int d.Delay.dmin and max_f = float_of_int d.Delay.dmax in
    let sigma = (max_f -. min_f) /. 6. in
    { mean = (min_f +. max_f) /. 2.; variance = sigma *. sigma }

  let add ?(correlation = 0.) a b =
    {
      mean = a.mean +. b.mean;
      variance =
        a.variance +. b.variance
        +. (2. *. correlation *. sqrt (a.variance *. b.variance));
    }

  let quantile t ~z = t.mean +. (z *. sqrt t.variance)

  let pp ppf t =
    Format.fprintf ppf "%.2f ns +- %.2f ns" (t.mean /. 1000.) (sqrt t.variance /. 1000.)
end

type path = {
  p_from : string;
  p_to : string;
  p_dist : Dist.t;
  p_minmax : Timebase.ps * Timebase.ps;
  p_through : string list;
}

type report = { r_paths : path list; r_correlation : float }

let path_of_full correlation (fp : Path_analysis.full_path) =
  let dist =
    List.fold_left
      (fun acc d -> Dist.add ~correlation acc (Dist.of_delay d))
      { Dist.mean = 0.; variance = 0. }
      fp.Path_analysis.f_delays
  in
  let dmin = List.fold_left (fun acc d -> acc + d.Delay.dmin) 0 fp.Path_analysis.f_delays in
  let dmax = List.fold_left (fun acc d -> acc + d.Delay.dmax) 0 fp.Path_analysis.f_delays in
  {
    p_from = fp.Path_analysis.f_from;
    p_to = fp.Path_analysis.f_to;
    p_dist = dist;
    p_minmax = (dmin, dmax);
    p_through = fp.Path_analysis.f_through;
  }

let analyze ?sources ?sinks ?(correlation = 0.) nl =
  if not (correlation >= 0. && correlation <= 1.) then
    invalid_arg "Prob_analysis.analyze: correlation must be in [0, 1]";
  let full = Path_analysis.enumerate ?sources ?sinks nl in
  { r_paths = List.map (path_of_full correlation) full; r_correlation = correlation }

let worst_quantile r ~z =
  List.fold_left
    (fun acc p ->
      let q = Dist.quantile p.p_dist ~z in
      match acc with
      | Some (_, best) when best >= q -> acc
      | _ -> Some (p, q))
    None r.r_paths

let predicted_cycle_ns r ~z =
  match worst_quantile r ~z with Some (_, q) -> q /. 1000. | None -> 0.

let minmax_cycle_ns r =
  List.fold_left (fun acc p -> max acc (snd p.p_minmax)) 0 r.r_paths
  |> fun ps -> float_of_int ps /. 1000.

let pp ppf r =
  Format.fprintf ppf "@[<v>PROBABILITY-BASED PATH ANALYSIS (correlation %.2f)@,"
    r.r_correlation;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %s -> %s: %a  [min/max %a/%a ns]@," p.p_from p.p_to Dist.pp
        p.p_dist Timebase.pp_ns (fst p.p_minmax) Timebase.pp_ns (snd p.p_minmax))
    (List.sort
       (fun a b -> compare (Dist.quantile b.p_dist ~z:3.) (Dist.quantile a.p_dist ~z:3.))
       r.r_paths);
  Format.fprintf ppf "@]"
