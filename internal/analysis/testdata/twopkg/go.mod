module twopkg

go 1.24
