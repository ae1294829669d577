module ptlsim/benchmark

go 1.22

require ptlsim v0.0.0

replace ptlsim => ../
