(* Paged dense shadow storage: one cell per 4-aligned address, 4 KiB of
   client space per page, pages allocated on first write. A cell holds
   the payload of the entry starting there and its byte size (0 = no
   entry), so a probe is a few array reads and allocates nothing. *)

type 'a page = { slots : 'a array; sizes : Bytes.t }
type 'a t = { pages : 'a page option array; absent : 'a }

let page_cells = 1024

let create nbytes absent =
  let ncells = (nbytes + 3) lsr 2 in
  let npages = ((ncells + page_cells - 1) / page_cells) + 1 in
  { pages = Array.make npages None; absent }

let get t addr size =
  if addr land 3 <> 0 || addr < 0 then t.absent
  else
    let c = addr lsr 2 in
    let p = c / page_cells in
    if p >= Array.length t.pages then t.absent
    else
      match t.pages.(p) with
      | None -> t.absent
      | Some pg ->
          let i = c land (page_cells - 1) in
          if Bytes.get_uint8 pg.sizes i = size then pg.slots.(i) else t.absent

(* kill entries overlapping [addr, addr+size): an entry is at most 16
   bytes long, so only cells from 12 bytes below [addr] can reach it *)
let clear_range t addr size =
  let off = ref ((addr - 12) land lnot 3) in
  while !off < addr + size do
    (if !off >= 0 then
       let c = !off lsr 2 in
       let p = c / page_cells in
       if p < Array.length t.pages then
         match t.pages.(p) with
         | None -> ()
         | Some pg ->
             let i = c land (page_cells - 1) in
             let esize = Bytes.get_uint8 pg.sizes i in
             if esize > 0 && !off + esize > addr then begin
               Bytes.set_uint8 pg.sizes i 0;
               pg.slots.(i) <- t.absent
             end);
    off := !off + 4
  done

let set t addr size sh =
  clear_range t addr size;
  if addr land 3 = 0 && addr >= 0 then begin
    let c = addr lsr 2 in
    let p = c / page_cells in
    if p < Array.length t.pages then begin
      let pg =
        match t.pages.(p) with
        | Some pg -> pg
        | None ->
            let pg =
              {
                slots = Array.make page_cells t.absent;
                sizes = Bytes.make page_cells '\000';
              }
            in
            t.pages.(p) <- Some pg;
            pg
      in
      let i = c land (page_cells - 1) in
      pg.slots.(i) <- sh;
      Bytes.set_uint8 pg.sizes i size
    end
  end
