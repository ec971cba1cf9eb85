let uniform rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

let[@inline] normal rng ~mu ~sigma =
  (* Box-Muller; we draw u1 in (0,1] to avoid log 0. *)
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let[@inline] normal_pos rng ~mu ~sigma = Float.max 0.0 (normal rng ~mu ~sigma)

let exponential rng ~rate =
  if not (Float.is_finite rate) then invalid_arg "Dist.exponential: rate must be finite";
  if rate <= 0.0 then invalid_arg "Dist.exponential: rate must be positive";
  let u = 1.0 -. Rng.float rng 1.0 in
  -.log u /. rate

let poisson rng ~mean =
  if not (Float.is_finite mean) then invalid_arg "Dist.poisson: mean must be finite";
  if mean < 0.0 then invalid_arg "Dist.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 60.0 then
    (* Normal approximation is ample for workload generation. *)
    let x = normal rng ~mu:mean ~sigma:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else begin
    (* Knuth: count the uniform factors it takes for their product to
       drop to [exp (-mean)]. A local float ref stays unboxed, and each
       factor is [Rng.float rng 1.0] built from an int draw, so no boxed
       float crosses a call even where [Rng.float] is not inlined. *)
    let limit = exp (-.mean) in
    let k = ref 0 in
    let p = ref (float_of_int (Rng.bits rng) /. 4294967296.0) in
    while not (!p <= limit) do
      incr k;
      p := !p *. (float_of_int (Rng.bits rng) /. 4294967296.0)
    done;
    !k
  end

let order_statistic_mean rng ~n ~k ~mu ~sigma ~trials =
  if k < 1 || k > n then invalid_arg "Dist.order_statistic_mean: k out of range";
  let sample = Array.make n 0.0 in
  let total = ref 0.0 in
  for _ = 1 to trials do
    for i = 0 to n - 1 do
      sample.(i) <- normal rng ~mu ~sigma
    done;
    Array.sort Float.compare sample;
    total := !total +. sample.(k - 1)
  done;
  !total /. float_of_int trials

let erf_as z =
  (* Abramowitz & Stegun 7.1.26 for z >= 0, |error| <= 1.5e-7. *)
  let t = 1.0 /. (1.0 +. (0.3275911 *. z)) in
  let poly =
    ((((1.061405429 *. t -. 1.453152027) *. t +. 1.421413741) *. t
     -. 0.284496736)
     *. t
    +. 0.254829592)
    *. t
  in
  1.0 -. (poly *. exp (-.(z *. z)))

let normal_cdf x =
  let z = Float.abs x /. sqrt 2.0 in
  let e = erf_as z in
  if x >= 0.0 then 0.5 *. (1.0 +. e) else 0.5 *. (1.0 -. e)

let log_choose n k =
  let rec lf acc i = if i <= 1 then acc else lf (acc +. log (float_of_int i)) (i - 1) in
  lf 0.0 n -. lf 0.0 k -. lf 0.0 (n - k)

let order_statistic_mean_numeric ~n ~k ~mu ~sigma =
  if k < 1 || k > n then
    invalid_arg "Dist.order_statistic_mean_numeric: k out of range";
  (* E X_(k) = k * C(n,k) * int x phi(x) Phi(x)^(k-1) (1-Phi(x))^(n-k) dx for
     the standard normal, then rescale. Trapezoid over [-8, 8]. *)
  let steps = 4000 in
  let lo = -8.0 and hi = 8.0 in
  let h = (hi -. lo) /. float_of_int steps in
  let logc = log (float_of_int k) +. log_choose n k in
  let f x =
    let phi = exp (-.(x *. x) /. 2.0) /. sqrt (2.0 *. Float.pi) in
    let cdf = normal_cdf x in
    if cdf <= 0.0 || cdf >= 1.0 then 0.0
    else
      let logw =
        logc
        +. (float_of_int (k - 1) *. log cdf)
        +. (float_of_int (n - k) *. log (1.0 -. cdf))
      in
      x *. phi *. exp logw
  in
  let acc = ref 0.0 in
  for i = 0 to steps do
    let x = lo +. (h *. float_of_int i) in
    let w = if i = 0 || i = steps then 0.5 else 1.0 in
    acc := !acc +. (w *. f x)
  done;
  mu +. (sigma *. !acc *. h)
