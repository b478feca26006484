# Variable shifts take their operands as `sllv rd, rt, rs`: shift rt by the
# low five bits of rs (docs/isa.md).  The program prints "16 16 -16" and
# exits 0.
.text
main:
  li t1, 4          # the shift amount, in rs
  li t0, 1
  sllv a0, t0, t1   # 1 << 4
  li v0, 2          # print_int
  syscall
  li a0, 32         # ' '
  li v0, 3          # print_char
  syscall
  li t0, 256
  srlv a0, t0, t1   # 256 >> 4
  li v0, 2
  syscall
  li a0, 32
  li v0, 3
  syscall
  li t0, -256
  srav a0, t0, t1   # -256 >> 4, arithmetic
  li v0, 2
  syscall
  li a0, 10         # '\n'
  li v0, 3
  syscall
  li a0, 0
  li v0, 1          # exit
  syscall
