type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length v = v.len

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate: bad length";
  v.len <- n

let copy v = { data = Array.copy v.data; len = v.len }

let copy_into ~src ~dst =
  if Array.length dst.data < src.len then dst.data <- Array.copy src.data
  else Array.blit src.data 0 dst.data 0 src.len;
  dst.len <- src.len

let to_array v = Array.sub v.data 0 v.len

let of_array a = { data = Array.copy a; len = Array.length a }

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0
