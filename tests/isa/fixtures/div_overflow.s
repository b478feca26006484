# INT_MIN / -1 and INT_MIN % -1, the one signed division that overflows.
# The ISA defines the results as INT_MIN and 0 (docs/isa.md); the program
# prints "-2147483648 0" and exits 0.
.text
main:
  li t0, 0x80000000
  li t1, -1
  div a0, t0, t1
  li v0, 2          # print_int
  syscall
  li a0, 32         # ' '
  li v0, 3          # print_char
  syscall
  rem a0, t0, t1
  li v0, 2
  syscall
  li a0, 10         # '\n'
  li v0, 3
  syscall
  li a0, 0
  li v0, 1          # exit
  syscall
