# Store-to-load forwarding at the last word of the 32-bit address space,
# where `address + size` wraps to 0.  Each load reads a store that is still
# in flight.  The program prints "77 83886157" (0x0500004D) and exits 0.
.text
main:
  li s0, -4         # 0xFFFFFFFC
  li t0, 77
  sw t0, 0(s0)
  lw a0, 0(s0)      # the whole word comes from the store: 77
  li v0, 2          # print_int
  syscall
  li a0, 32         # ' '
  li v0, 3          # print_char
  syscall
  li t1, 5
  sb t1, 3(s0)      # byte 0xFFFFFFFF
  lw a0, 0(s0)      # byte 3 from the store, bytes 0-2 from memory
  li v0, 2
  syscall
  li a0, 10         # '\n'
  li v0, 3
  syscall
  li a0, 0
  li v0, 1          # exit
  syscall
