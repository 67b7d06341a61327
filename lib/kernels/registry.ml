let all =
  [
    ("fir2dim", Fir2dim.ddg);
    ("idcthor", Idcthor.ddg);
    ("mpeg2inter", Mpeg2inter.ddg);
    ("h264deblocking", H264deblock.ddg);
  ]

let extended = all @ Extended.all

let find name = List.assoc_opt name extended

let names = List.map fst all

let sorted = List.sort compare (List.map fst extended)
